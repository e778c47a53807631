package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"seaice/internal/chaos"
	"seaice/internal/core"
	"seaice/internal/raster"
	"seaice/internal/unet"
)

// encodePNG renders img as a /classify request body.
func encodePNG(t testing.TB, img *raster.RGB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := img.EncodePNG(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// classify drives one POST /classify straight through the handler (no
// socket) and returns the status, the parsed X-Seaice-Stats of a 200,
// and the body.
func classify(t testing.TB, srv *Server, query string, body []byte, deadline string) (int, classifyStats, []byte) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/classify?"+query, bytes.NewReader(body))
	if deadline != "" {
		req.Header.Set(DeadlineHeader, deadline)
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	var stats classifyStats
	if rec.Code == http.StatusOK {
		if err := json.Unmarshal([]byte(rec.Header().Get("X-Seaice-Stats")), &stats); err != nil {
			t.Errorf("bad X-Seaice-Stats %q: %v", rec.Header().Get("X-Seaice-Stats"), err)
		}
	}
	return rec.Code, stats, rec.Body.Bytes()
}

// engineServer starts a server around one engine.
func engineServer(t testing.TB, cfg Config, e unet.Engine) *Server {
	t.Helper()
	reg := NewRegistry()
	if err := reg.Add("default", e); err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(cfg, reg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv
}

// wantBodies renders labels the two ways /classify can: PNG and
// format=raw.
func wantBodies(t testing.TB, labels *raster.Labels) (png, raw []byte) {
	t.Helper()
	var buf bytes.Buffer
	if err := labels.Render().EncodePNG(&buf); err != nil {
		t.Fatal(err)
	}
	raw = make([]byte, len(labels.Pix))
	for i, c := range labels.Pix {
		raw[i] = byte(c)
	}
	return buf.Bytes(), raw
}

// cachePixels reads the resident label-pixel count.
func cachePixels(c *Cache) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.used
}

// TestSceneCacheMatchesInference: the miss and the hit of an unfiltered
// request — one tile and a 4×4-tile scene, f32 and int8 engines, PNG and
// raw — are byte-equal to offline core.Inference, the hit is all-hit in
// both the header and /statz, and a miss stores exactly one entry.
func TestSceneCacheMatchesInference(t *testing.T) {
	f32, err := unet.New[float32](unet.FastConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	engines := map[string]unet.Engine{"f32": f32, "int8": testQuantModel(t, 3)}
	cfg := DefaultConfig()
	cfg.TileSize = 32
	for name, engine := range engines {
		for _, side := range []int{32, 128} {
			t.Run(fmt.Sprintf("%s/%d", name, side), func(t *testing.T) {
				srv := engineServer(t, cfg, engine)
				img := testSceneImg(t, 61, side, side)
				body := encodePNG(t, img)
				tiles := (side / 32) * (side / 32)
				want, err := core.Inference(engine, img, cfg.TileSize, cfg.Build)
				if err != nil {
					t.Fatal(err)
				}
				wantPNG, wantRaw := wantBodies(t, want)

				for round, wantHits := range []int{0, tiles, tiles} {
					query, wantBody := "", wantPNG
					if round == 2 {
						query, wantBody = "format=raw", wantRaw
					}
					status, stats, got := classify(t, srv, query, body, "")
					if status != http.StatusOK {
						t.Fatalf("round %d: status %d: %s", round, status, got)
					}
					if !bytes.Equal(got, wantBody) {
						t.Fatalf("round %d: served bytes differ from core.Inference", round)
					}
					if stats.Tiles != tiles || stats.CacheHits != wantHits || !stats.FilterUsed {
						t.Fatalf("round %d: stats %+v, want %d tiles / %d hits / filter", round, stats, tiles, wantHits)
					}
				}
				if n := srv.cache.Len(); n != 1 {
					t.Fatalf("cache holds %d entries after one scene, want 1 (no per-tile entries)", n)
				}
				snap := srv.Stats()
				if snap.CacheHits != int64(2*tiles) || snap.CacheMisses != int64(tiles) {
					t.Fatalf("/statz counters %d/%d, want tile-weighted %d/%d",
						snap.CacheHits, snap.CacheMisses, 2*tiles, tiles)
				}
				if snap.Batches == 0 || snap.Tiles != int64(3*tiles) {
					t.Fatalf("unexpected snapshot %+v", snap)
				}
			})
		}
	}
}

// TestSceneAndTileKeySpacesStayApart posts the same pixels unfiltered
// and with filtered=1, in both orders: each request gets its own correct
// answer (they differ — the filter changes the input), and neither ever
// reads the other's entry.
func TestSceneAndTileKeySpacesStayApart(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TileSize = 32
	engine := testModel(t, 1)
	img := testSceneImg(t, 62, 64, 64)
	body := encodePNG(t, img)

	unfiltered, err := core.Inference(engine, img, cfg.TileSize, cfg.Build)
	if err != nil {
		t.Fatal(err)
	}
	filtered, err := core.InferFilteredScene(core.NewSessionPredictor(engine, 0), img, cfg.TileSize)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]byte{}
	want[""], _ = wantBodies(t, unfiltered)
	want["filtered=1"], _ = wantBodies(t, filtered)
	if bytes.Equal(want[""], want["filtered=1"]) {
		t.Fatal("test scene classifies the same with and without the filter; pick another seed")
	}

	for _, order := range [][]string{{"", "filtered=1"}, {"filtered=1", ""}} {
		srv := engineServer(t, cfg, engine)
		for _, query := range append(order, order...) {
			status, stats, got := classify(t, srv, query, body, "")
			if status != http.StatusOK {
				t.Fatalf("%q: status %d: %s", query, status, got)
			}
			if !bytes.Equal(got, want[query]) {
				t.Fatalf("order %q: request %q got another key space's answer", order, query)
			}
			if stats.FilterUsed != (query == "") {
				t.Fatalf("%q: stats %+v", query, stats)
			}
		}
		// One scene entry plus four tile entries; the second pass hit all.
		if n := srv.cache.Len(); n != 5 {
			t.Fatalf("order %q: %d entries, want 5", order, n)
		}
		if hits, misses := srv.cache.Counters(); hits != 8 || misses != 8 {
			t.Fatalf("order %q: counters %d/%d, want 8/8", order, hits, misses)
		}
	}
}

// TestContentKeysUnambiguous: the two key spaces never collide on equal
// pixels, and a model name cannot absorb the bytes that follow it.
func TestContentKeysUnambiguous(t *testing.T) {
	img := testTiles(1, 16, 4)[0]
	if TileKey("m", img) == SceneKey("m", img) {
		t.Fatal("tile and scene key of the same pixels collide")
	}

	// A pair that plain concatenation (name ‖ dims ‖ pixels) cannot tell
	// apart: the long name swallows the short name's dims and first
	// pixel byte, and the short name's remaining pixels read as the
	// long name's dims and pixels.
	dims := func(w, h int) []byte {
		var b [8]byte
		binary.LittleEndian.PutUint32(b[0:], uint32(w))
		binary.LittleEndian.PutUint32(b[4:], uint32(h))
		return b[:]
	}
	a := raster.NewRGB(4, 1)
	copy(a.Pix, append(append([]byte{9}, dims(1, 1)...), 5, 6, 7))
	b := raster.NewRGB(1, 1)
	copy(b.Pix, []byte{5, 6, 7})
	short, long := "m", "m"+string(dims(4, 1))+"\x09"
	naive := func(model string, img *raster.RGB) [sha256.Size]byte {
		return sha256.Sum256(append(append([]byte(model), dims(img.W, img.H)...), img.Pix...))
	}
	if naive(short, a) != naive(long, b) {
		t.Fatal("test vectors do not collide under plain concatenation")
	}
	for _, key := range []func(string, *raster.RGB) CacheKey{TileKey, SceneKey} {
		if key(short, a) == key(long, b) {
			t.Fatal("model name boundary is ambiguous")
		}
	}
}

// TestCachePixelCapacity: capacity counts label pixels, so a scene
// larger than the whole cache is not stored and evicts nothing, smaller
// scenes evict least-recent-first, and the resident pixels never exceed
// CacheSize × TileSize².
func TestCachePixelCapacity(t *testing.T) {
	const tile, capTiles = 4, 8
	c := NewCache(capTiles, tile)
	key := func(i int) CacheKey {
		img := raster.NewRGB(1, 1)
		img.Pix[0] = uint8(i)
		return SceneKey("m", img)
	}
	bound := func() {
		t.Helper()
		if px := cachePixels(c); px > capTiles*tile*tile {
			t.Fatalf("%d resident label pixels exceed %d", px, capTiles*tile*tile)
		}
	}
	c.Put(key(0), raster.NewLabels(tile, tile)) // one tile
	c.Put(key(1), raster.NewLabels(4*tile, 4*tile))
	if _, ok := c.Get(key(1), 16); ok || c.Len() != 1 {
		t.Fatalf("16-tile scene stored in an 8-tile cache (len %d)", c.Len())
	}
	if _, ok := c.Get(key(0), 1); !ok {
		t.Fatal("oversize store evicted a resident entry")
	}
	bound()

	c = NewCache(capTiles, tile)
	c.Put(key(2), raster.NewLabels(2*tile, 2*tile)) // 4 tiles
	c.Put(key(3), raster.NewLabels(2*tile, 2*tile)) // 4 tiles: full
	bound()
	if _, ok := c.Get(key(2), 4); !ok { // key 3 is now least recent
		t.Fatal("first scene missing before capacity was exceeded")
	}
	c.Put(key(4), raster.NewLabels(2*tile, 2*tile))
	bound()
	if _, ok := c.Get(key(3), 4); ok {
		t.Fatal("least recently used scene survived")
	}
	if _, ok := c.Get(key(2), 4); !ok {
		t.Fatal("recently used scene evicted")
	}
	// One tile more evicts a whole 4-tile scene: entries go whole.
	c.Put(key(5), raster.NewLabels(tile, tile))
	bound()
	if c.Len() != 2 || cachePixels(c) != 5*tile*tile {
		t.Fatalf("len %d / %d px, want 2 entries / %d px", c.Len(), cachePixels(c), 5*tile*tile)
	}
	// Re-storing a resident key replaces it without double counting.
	c.Put(key(5), raster.NewLabels(tile, tile))
	if c.Len() != 2 || cachePixels(c) != 5*tile*tile {
		t.Fatalf("re-store changed accounting: len %d / %d px", c.Len(), cachePixels(c))
	}
	hits, misses := c.Counters()
	if hits != 8 || misses != 4 {
		t.Fatalf("tile-weighted counters %d/%d, want 8/4", hits, misses)
	}
}

// TestFailedRequestsStoreNothing: a request that ends in a deadline
// expiry (504), an infeasible deadline (429) or queue overload (429)
// leaves the cache as it was, and the same pixels posted again under
// healthy conditions are computed, not served from a poisoned entry.
// (unet.ErrNonFinite is covered by TestCorruptModelRejectedWith400.)
func TestFailedRequestsStoreNothing(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TileSize = 16
	engine := testModel(t, 1)
	bodies := make([][]byte, 24)
	for i, tile := range testTiles(len(bodies), 16, 8) {
		bodies[i] = encodePNG(t, tile)
	}
	healthyMiss := func(t *testing.T, srv *Server, body []byte) {
		t.Helper()
		before := srv.cache.Len()
		status, stats, got := classify(t, srv, "", body, "")
		if status != http.StatusOK || stats.CacheHits != 0 {
			t.Fatalf("healthy repeat: status %d, %d hits (%s); want a 200 miss", status, stats.CacheHits, got)
		}
		if n := srv.cache.Len(); n != before+1 {
			t.Fatalf("healthy repeat left %d entries, want %d", n, before+1)
		}
	}

	t.Run("expired", func(t *testing.T) {
		// Every batch starts 100ms late: a 20ms budget is admitted (the
		// service model has no observations yet) and expires in queue.
		slow, err := chaos.Parse("1:slownode@0:100ms")
		if err != nil {
			t.Fatal(err)
		}
		slowCfg := cfg
		slowCfg.Chaos = chaos.New(slow, 1)
		srv := engineServer(t, slowCfg, engine)
		status, _, got := classify(t, srv, "", bodies[0], "20")
		if status != http.StatusGatewayTimeout {
			t.Fatalf("status %d (%s), want 504", status, got)
		}
		if n := srv.cache.Len(); n != 0 {
			t.Fatalf("expired request stored %d entries", n)
		}
		healthyMiss(t, srv, bodies[0])
	})

	t.Run("infeasible", func(t *testing.T) {
		srv := engineServer(t, cfg, engine)
		// Teach the service model a forward pass costs more than 1ms.
		for srv.sched.Model().PredictWait(0, cfg.Workers) <= 0 {
			srv.sched.Model().Observe(1, 50*time.Millisecond)
		}
		status, _, got := classify(t, srv, "", bodies[1], "1")
		if status != http.StatusTooManyRequests {
			t.Fatalf("status %d (%s), want 429", status, got)
		}
		if n := srv.cache.Len(); n != 0 {
			t.Fatalf("infeasible request stored %d entries", n)
		}
		healthyMiss(t, srv, bodies[1])
	})

	t.Run("overloaded", func(t *testing.T) {
		tiny := cfg
		tiny.Workers, tiny.QueueSize, tiny.MaxBatch = 1, 1, 1
		slow, err := chaos.Parse("1:slownode@0:10ms")
		if err != nil {
			t.Fatal(err)
		}
		tiny.Chaos = chaos.New(slow, 1)
		srv := engineServer(t, tiny, engine)
		status := make([]int, len(bodies))
		var wg sync.WaitGroup
		for i := range bodies {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				status[i], _, _ = classify(t, srv, "", bodies[i], "")
			}(i)
		}
		wg.Wait()
		var ok, rejected []int
		for i, s := range status {
			switch s {
			case http.StatusOK:
				ok = append(ok, i)
			case http.StatusTooManyRequests:
				rejected = append(rejected, i)
			default:
				t.Fatalf("request %d: status %d", i, s)
			}
		}
		if len(ok) == 0 || len(rejected) == 0 {
			t.Fatalf("%d ok / %d rejected: overload not exercised", len(ok), len(rejected))
		}
		if n := srv.cache.Len(); n != len(ok) {
			t.Fatalf("%d entries after %d successes and %d rejections", n, len(ok), len(rejected))
		}
		healthyMiss(t, srv, bodies[rejected[0]])
	})
}

// TestBadDeadlineBeatsCacheHit: request validation runs before the
// lookup, so a malformed deadline is a 400 even when the body would hit.
func TestBadDeadlineBeatsCacheHit(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TileSize = 16
	srv := engineServer(t, cfg, testModel(t, 1))
	body := encodePNG(t, testTiles(1, 16, 12)[0])
	if status, _, got := classify(t, srv, "", body, ""); status != http.StatusOK {
		t.Fatalf("priming: status %d: %s", status, got)
	}
	for _, bad := range []string{"abc", "-5", "0"} {
		if status, _, _ := classify(t, srv, "", body, bad); status != http.StatusBadRequest {
			t.Fatalf("%s=%q on a cached body: status %d, want 400", DeadlineHeader, bad, status)
		}
	}
	// A hit needs no compute, so it legally answers the tightest budget.
	status, stats, _ := classify(t, srv, "", body, "1")
	if status != http.StatusOK || stats.CacheHits != 1 {
		t.Fatalf("1ms deadline on a cached body: status %d, %d hits", status, stats.CacheHits)
	}
}

// TestZipfReplayHitSequence replays a fixed-seed Zipf stream of 2000
// single-tile unfiltered requests against a 256-tile cache, one at a
// time. Keying on the request's input instead of the filtered tile must
// not change which requests hit: the constants are the parent commit's
// (per-tile keys taken after the filter), recorded by running this test
// there.
func TestZipfReplayHitSequence(t *testing.T) {
	if testing.Short() {
		t.Skip("2000 requests")
	}
	const (
		pool, requests = 768, 2000
		wantHits       = 1568
		wantSeqCRC     = 0x73b1d07d
	)
	cfg := DefaultConfig()
	cfg.TileSize = 16
	cfg.CacheSize = 256
	srv := engineServer(t, cfg, testModel(t, 1))
	bodies := make([][]byte, pool)
	for i, tile := range testTiles(pool, 16, 21) {
		bodies[i] = encodePNG(t, tile)
	}
	zipf := rand.NewZipf(rand.New(rand.NewSource(7)), 1.1, 1, pool-1)
	seq := make([]byte, requests)
	hits := 0
	for i := range seq {
		status, stats, got := classify(t, srv, "", bodies[zipf.Uint64()], "")
		if status != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, status, got)
		}
		seq[i] = byte(stats.CacheHits)
		hits += stats.CacheHits
	}
	if crc := crc32.ChecksumIEEE(seq); hits != wantHits || crc != wantSeqCRC {
		t.Fatalf("%d hits, sequence crc %#x; the parent commit gives %d, %#x", hits, crc, wantHits, wantSeqCRC)
	}
	if h, m := srv.cache.Counters(); h != wantHits || h+m != requests {
		t.Fatalf("cache counters %d/%d disagree with the per-request headers", h, m)
	}
}

// TestSceneCacheConcurrent is the -race target for the scene path: 8
// goroutines post an overlapping set of scenes and tiles, filtered and
// not, through a cache small enough to evict, and every answer must
// equal the golden for its (pixels, filtered) pair.
func TestSceneCacheConcurrent(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TileSize = 16
	cfg.CacheSize = 24
	engine := testModel(t, 1)
	srv := engineServer(t, cfg, engine)

	type job struct {
		query string
		body  []byte
		want  []byte
	}
	var jobs []job
	imgs := []*raster.RGB{
		testSceneImg(t, 71, 64, 64), // 16 tiles
		testSceneImg(t, 72, 32, 32), // 4 tiles
		testSceneImg(t, 73, 32, 16),
		testSceneImg(t, 74, 16, 16),
		testSceneImg(t, 75, 16, 16),
		testSceneImg(t, 76, 96, 96), // 36 tiles: larger than the cache
	}
	for _, img := range imgs {
		body := encodePNG(t, img)
		unfiltered, err := core.Inference(engine, img, cfg.TileSize, cfg.Build)
		if err != nil {
			t.Fatal(err)
		}
		filtered, err := core.InferFilteredScene(core.NewSessionPredictor(engine, 0), img, cfg.TileSize)
		if err != nil {
			t.Fatal(err)
		}
		wantU, _ := wantBodies(t, unfiltered)
		wantF, _ := wantBodies(t, filtered)
		jobs = append(jobs, job{"", body, wantU}, job{"filtered=1", body, wantF})
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 6; round++ {
				j := jobs[(g*5+round*7)%len(jobs)]
				status, stats, got := classify(t, srv, j.query, j.body, "")
				if status != http.StatusOK {
					t.Errorf("goroutine %d round %d: status %d: %s", g, round, status, got)
					return
				}
				if !bytes.Equal(got, j.want) {
					t.Errorf("goroutine %d round %d (%q): wrong answer", g, round, j.query)
				}
				if j.query == "" && stats.CacheHits != 0 && stats.CacheHits != stats.Tiles {
					t.Errorf("unfiltered request reports a partial hit: %+v", stats)
				}
			}
		}(g)
	}
	wg.Wait()
	if px := cachePixels(srv.cache); px > cfg.CacheSize*cfg.TileSize*cfg.TileSize {
		t.Fatalf("%d resident label pixels exceed the capacity", px)
	}
}
