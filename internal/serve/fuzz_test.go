package serve

import (
	"bytes"
	"image/png"
	"net/http"
	"net/url"
	"testing"

	"seaice/internal/raster"
)

// FuzzClassifyRequest feeds /classify arbitrary body bytes, filtered and
// format query values and a deadline header, against a small caching
// server: the request decoder must never panic, every outcome must be
// one of the documented statuses (the POST goes to the default model,
// so 404 and 405 are out of reach; 500 would be an unclassified
// failure), and any request answered 200 must be answered again from the
// cache — byte-equal, every tile a hit — whichever key space it used.
func FuzzClassifyRequest(f *testing.F) {
	cfg := DefaultConfig()
	cfg.TileSize = 16
	cfg.CacheSize = 256
	cfg.Workers = 1
	srv := engineServer(f, cfg, testModel(f, 1))

	valid := encodePNG(f, testTiles(1, 16, 31)[0])
	f.Add(valid, "", "", "")
	f.Add(valid, "1", "raw", "60000")
	f.Add(valid, "", "", "abc")
	f.Add(valid, "1", "", "1")
	f.Add(valid[:len(valid)/2], "", "", "") // truncated
	f.Add(pngWithHeaderDims(f, 0, 0), "", "", "")
	f.Add(encodePNG(f, raster.NewRGB(17, 16)), "1", "raw", "") // not a tile multiple
	f.Add(encodePNG(f, testTiles(1, 32, 32)[0]), "0", "png", "250")
	f.Add([]byte{}, "", "", "")

	// maxFuzzDim keeps one execution small: a few hundred bytes of PNG
	// can legally declare an 8192² scene, which is minutes of filtering
	// and hundreds of MB — a resource test, not a decoder test. 128² is
	// 64 tiles, inside the cache, so the repeat below must be all-hit.
	const maxFuzzDim = 128

	f.Fuzz(func(t *testing.T, body []byte, filtered, format, deadline string) {
		if c, err := png.DecodeConfig(bytes.NewReader(body)); err == nil && (c.Width > maxFuzzDim || c.Height > maxFuzzDim) {
			t.Skip("scene larger than the fuzz bound")
		}
		query := url.Values{"filtered": {filtered}, "format": {format}}.Encode()
		status, stats, first := classify(t, srv, query, body, deadline)
		switch status {
		case http.StatusOK:
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge,
			http.StatusTooManyRequests, http.StatusGatewayTimeout:
			return
		default:
			t.Fatalf("status %d: %s", status, first)
		}
		again, repeat, second := classify(t, srv, query, body, deadline)
		if again != http.StatusOK {
			t.Fatalf("repeat of a 200 answered %d: %s", again, second)
		}
		if !bytes.Equal(first, second) {
			t.Fatal("repeat of a 200 answered different bytes")
		}
		if repeat.Tiles != stats.Tiles || repeat.CacheHits != repeat.Tiles {
			t.Fatalf("repeat of a 200 reports %d hits of %d tiles (first: %d tiles)",
				repeat.CacheHits, repeat.Tiles, stats.Tiles)
		}
	})
}
