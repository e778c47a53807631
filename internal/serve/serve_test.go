package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"image/png"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"seaice/internal/core"
	"seaice/internal/noise"
	"seaice/internal/raster"
	"seaice/internal/scene"
	"seaice/internal/unet"
)

// testModel builds a small deterministic model.
func testModel(t testing.TB, seed uint64) *unet.Model[float64] {
	t.Helper()
	m, err := unet.New[float64](unet.FastConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// testTiles renders deterministic random tiles.
func testTiles(n, size int, seed uint64) []*raster.RGB {
	rng := noise.NewRNG(seed, 0x711e)
	out := make([]*raster.RGB, n)
	for i := range out {
		img := raster.NewRGB(size, size)
		for p := range img.Pix {
			img.Pix[p] = uint8(rng.Uint64())
		}
		out[i] = img
	}
	return out
}

// testServer spins up a ready-to-use server around one model.
func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := engineServer(t, cfg, testModel(t, 1))
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close) // runs before engineServer's srv.Close
	return srv, ts
}

func postPNG(t *testing.T, client *http.Client, url string, img *raster.RGB) (*http.Response, []byte) {
	t.Helper()
	resp, err := client.Post(url, "image/png", bytes.NewReader(encodePNG(t, img)))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// TestClassifyConcurrent fires 64+ concurrent /classify requests and
// expects every one to succeed with a well-formed label-map PNG — the
// acceptance bar for the micro-batching path under -race.
func TestClassifyConcurrent(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TileSize = 16
	cfg.QueueSize = 512
	_, ts := testServer(t, cfg)

	const concurrent = 72
	tiles := testTiles(concurrent, 16, 9)
	errs := make([]error, concurrent)
	var wg sync.WaitGroup
	for i := 0; i < concurrent; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var buf bytes.Buffer
			if err := tiles[i].EncodePNG(&buf); err != nil {
				errs[i] = err
				return
			}
			resp, err := http.Post(ts.URL+"/classify", "image/png", &buf)
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				body, _ := io.ReadAll(resp.Body)
				errs[i] = fmt.Errorf("status %d: %s", resp.StatusCode, body)
				return
			}
			decoded, err := png.Decode(resp.Body)
			if err != nil {
				errs[i] = fmt.Errorf("bad PNG response: %w", err)
				return
			}
			b := decoded.Bounds()
			if b.Dx() != 16 || b.Dy() != 16 {
				errs[i] = fmt.Errorf("label map %dx%d, want 16x16", b.Dx(), b.Dy())
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
}

// TestClassifySceneMatchesCLI posts a full scene and checks the served
// label map is pixel-identical to the offline core.Inference path — the
// CLI and server share one inference code path.
func TestClassifySceneMatchesCLI(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TileSize = 32
	cfg.CacheSize = 0
	srv, ts := testServer(t, cfg)

	sceneCfg := scene.DefaultConfig(33)
	sceneCfg.W, sceneCfg.H = 128, 128
	sc, err := scene.Generate(sceneCfg)
	if err != nil {
		t.Fatal(err)
	}

	resp, body := postPNG(t, http.DefaultClient, ts.URL+"/classify", sc.Image)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}

	model, err := srv.reg.Get("")
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Inference(model, sc.Image, cfg.TileSize, cfg.Build)
	if err != nil {
		t.Fatal(err)
	}
	var wantPNG bytes.Buffer
	if err := want.Render().EncodePNG(&wantPNG); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, wantPNG.Bytes()) {
		t.Fatal("served label map differs from offline core.Inference output")
	}

	var stats classifyStats
	if err := json.Unmarshal([]byte(resp.Header.Get("X-Seaice-Stats")), &stats); err != nil {
		t.Fatalf("bad X-Seaice-Stats header: %v", err)
	}
	if stats.Tiles != 16 {
		t.Fatalf("stats report %d tiles, want 16", stats.Tiles)
	}
	if sum := stats.Water + stats.ThinIce + stats.ThickIce; sum < 0.999 || sum > 1.001 {
		t.Fatalf("class fractions sum to %f", sum)
	}
}

// TestCacheServesRepeats posts the same tile twice and expects the
// second answer to come from the LRU, byte-identical.
func TestCacheServesRepeats(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TileSize = 16
	srv, ts := testServer(t, cfg)

	tile := testTiles(1, 16, 5)[0]
	_, first := postPNG(t, http.DefaultClient, ts.URL+"/classify", tile)
	resp, second := postPNG(t, http.DefaultClient, ts.URL+"/classify", tile)
	if !bytes.Equal(first, second) {
		t.Fatal("cached response differs from first response")
	}
	var stats classifyStats
	if err := json.Unmarshal([]byte(resp.Header.Get("X-Seaice-Stats")), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.CacheHits != 1 {
		t.Fatalf("second request reports %d cache hits, want 1", stats.CacheHits)
	}
	if hits, _ := srv.cache.Counters(); hits != 1 {
		t.Fatalf("cache counters report %d hits, want 1", hits)
	}
}

// TestLargeSceneExceedsQueue posts a scene with more tiles than the
// whole request queue; the throttled fan-out must classify it anyway
// instead of flooding the queue and rejecting its own tiles with 429.
func TestLargeSceneExceedsQueue(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TileSize = 16
	cfg.QueueSize = 8
	cfg.Workers = 1
	cfg.CacheSize = 0
	_, ts := testServer(t, cfg)

	// 128×128 at tile 16 → 64 tiles, 8× the queue capacity.
	sceneCfg := scene.DefaultConfig(44)
	sceneCfg.W, sceneCfg.H = 128, 128
	sc, err := scene.Generate(sceneCfg)
	if err != nil {
		t.Fatal(err)
	}
	resp, body := postPNG(t, http.DefaultClient, ts.URL+"/classify", sc.Image)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	decoded, err := png.Decode(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if b := decoded.Bounds(); b.Dx() != 128 || b.Dy() != 128 {
		t.Fatalf("label map %dx%d, want 128x128", b.Dx(), b.Dy())
	}
}

// TestBackpressure drowns a deliberately tiny deployment and expects a
// mix of 200s and clean 429s — never hangs, never other failures.
func TestBackpressure(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TileSize = 16
	cfg.Workers = 1
	cfg.QueueSize = 1
	cfg.MaxBatch = 1
	cfg.CacheSize = 0
	_, ts := testServer(t, cfg)

	const concurrent = 64
	tiles := testTiles(concurrent, 16, 6)
	status := make([]int, concurrent)
	var wg sync.WaitGroup
	for i := 0; i < concurrent; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var buf bytes.Buffer
			if err := tiles[i].EncodePNG(&buf); err != nil {
				return
			}
			resp, err := http.Post(ts.URL+"/classify", "image/png", &buf)
			if err != nil {
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			status[i] = resp.StatusCode
		}(i)
	}
	wg.Wait()
	var ok, rejected, other int
	for _, s := range status {
		switch s {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			rejected++
		default:
			other++
		}
	}
	t.Logf("%d ok, %d rejected, %d other", ok, rejected, other)
	if ok == 0 {
		t.Fatal("no request succeeded under overload")
	}
	if other != 0 {
		t.Fatalf("%d requests failed with unexpected statuses: %v", other, status)
	}
}

// TestRefusedSceneComputesNothing: a scene whose tiles do not all fit
// the queue is refused with 429 and Retry-After as a whole. None of its
// tiles stays queued to be computed for a client that was already
// turned away, and the refusal counts once, not once per tile.
func TestRefusedSceneComputesNothing(t *testing.T) {
	gate := make(chan struct{})
	var mu sync.Mutex
	armed, computed := false, 0 // tiles the engine was handed after warm-up
	engine := &hookEngine{before: func(tiles []*raster.RGB) {
		mu.Lock()
		on := armed
		if on {
			computed += len(tiles)
		}
		mu.Unlock()
		if on {
			<-gate
		}
	}}
	cfg := DefaultConfig()
	cfg.TileSize = 16
	cfg.Workers = 1
	cfg.QueueSize = 4 // a scene submits 2 tiles at a time
	cfg.MaxBatch = 1
	cfg.CacheSize = 0
	srv := engineServer(t, cfg, engine)
	var release sync.Once
	t.Cleanup(func() { release.Do(func() { close(gate) }) }) // before srv.Close
	mu.Lock()
	armed = true
	mu.Unlock()

	// One tile holds the worker, and three more leave one slot free.
	var wg sync.WaitGroup
	held := testTiles(4, 16, 40)
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := srv.sched.SubmitTiles(engine, held, time.Time{}); err != nil {
			t.Errorf("held tiles: %v", err)
		}
	}()
	for end := time.Now().Add(5 * time.Second); srv.sched.QueueDepth() != 3; time.Sleep(time.Millisecond) {
		if time.Now().After(end) {
			t.Fatalf("queue depth %d, want 3", srv.sched.QueueDepth())
		}
	}

	req := httptest.NewRequest(http.MethodPost, "/classify", bytes.NewReader(encodePNG(t, testTiles(1, 64, 41)[0])))
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusTooManyRequests || rec.Header().Get("Retry-After") == "" {
		t.Fatalf("status %d, Retry-After %q (%s); want 429 with a Retry-After", rec.Code, rec.Header().Get("Retry-After"), rec.Body)
	}
	if depth := srv.sched.QueueDepth(); depth != 3 {
		t.Fatalf("queue depth %d after the refusal, want 3: part of the scene was left queued", depth)
	}
	release.Do(func() { close(gate) })
	wg.Wait()
	if computed != len(held) {
		t.Fatalf("the engine was handed %d tiles, want the %d held ones: a refused scene's tiles were computed", computed, len(held))
	}
	if snap := srv.Stats(); snap.Rejected != 1 {
		t.Fatalf("stats count %d rejections for one refused scene", snap.Rejected)
	}
}

// TestServerCloseLeaksNothing: a server that has answered scene and tile
// requests over HTTP has stopped every goroutine it started once Close
// returns.
func TestServerCloseLeaksNothing(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TileSize = 16
	cfg.Workers = 2
	leaked := goroutineBaseline(t)
	reg := NewRegistry()
	if err := reg.Add("default", testModel(t, 1)); err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(cfg, reg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	for _, img := range []*raster.RGB{testTiles(1, 64, 42)[0], testTiles(1, 16, 43)[0]} {
		if resp, body := postPNG(t, ts.Client(), ts.URL+"/classify", img); resp.StatusCode != http.StatusOK {
			t.Fatalf("%dx%d: status %d: %s", img.W, img.H, resp.StatusCode, body)
		}
	}
	ts.Close() // also closes the client's idle connections
	srv.Close()
	leaked()
}

// TestHTTPErrorPaths covers method, payload, geometry, and model-name
// validation.
func TestHTTPErrorPaths(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TileSize = 16
	_, ts := testServer(t, cfg)

	if resp, err := http.Get(ts.URL + "/classify"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("GET /classify: status %d, want 405", resp.StatusCode)
		}
	}

	resp, err := http.Post(ts.URL+"/classify", "image/png", bytes.NewReader([]byte("not a png")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad payload: status %d, want 400", resp.StatusCode)
	}

	resp, _ = postPNG(t, http.DefaultClient, ts.URL+"/classify", raster.NewRGB(17, 16))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("indivisible image: status %d, want 400", resp.StatusCode)
	}

	resp, _ = postPNG(t, http.DefaultClient, ts.URL+"/classify?model=nope", testTiles(1, 16, 1)[0])
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown model: status %d, want 404", resp.StatusCode)
	}

	// A tiny PNG whose header claims absurd dimensions must be
	// rejected from the header alone, before the full decode can
	// attempt a huge allocation.
	bomb := pngWithHeaderDims(t, 100000, 100000)
	resp, body := func() (*http.Response, []byte) {
		resp, err := http.Post(ts.URL+"/classify", "image/png", bytes.NewReader(bomb))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, b
	}()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("dimension bomb: status %d (%s), want 400", resp.StatusCode, body)
	}

	// An over-limit body must come back as 413, not a decode error.
	huge := make([]byte, maxBodyBytes+1)
	resp, err = http.Post(ts.URL+"/classify", "image/png", bytes.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413", resp.StatusCode)
	}
}

// pngWithHeaderDims hand-assembles a syntactically valid PNG whose
// IHDR declares the given dimensions with almost no pixel data behind
// it.
func pngWithHeaderDims(t testing.TB, w, h int) []byte {
	t.Helper()
	var buf bytes.Buffer
	buf.Write([]byte{0x89, 'P', 'N', 'G', '\r', '\n', 0x1a, '\n'})
	writeChunk := func(typ string, data []byte) {
		var hdr [8]byte
		binary.BigEndian.PutUint32(hdr[:4], uint32(len(data)))
		copy(hdr[4:], typ)
		buf.Write(hdr[:])
		buf.Write(data)
		crc := crc32.NewIEEE()
		crc.Write([]byte(typ))
		crc.Write(data)
		var sum [4]byte
		binary.BigEndian.PutUint32(sum[:], crc.Sum32())
		buf.Write(sum[:])
	}
	ihdr := make([]byte, 13)
	binary.BigEndian.PutUint32(ihdr[0:], uint32(w))
	binary.BigEndian.PutUint32(ihdr[4:], uint32(h))
	ihdr[8] = 8 // bit depth
	ihdr[9] = 0 // grayscale
	writeChunk("IHDR", ihdr)
	return buf.Bytes()
}

// TestHealthzAndStatz sanity-checks the observability endpoints.
func TestHealthzAndStatz(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TileSize = 16
	_, ts := testServer(t, cfg)

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status  string   `json:"status"`
		Models  []string `json:"models"`
		Default string   `json:"default"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health.Status != "ok" || health.Default != "default" || len(health.Models) != 1 {
		t.Fatalf("unexpected health: %+v", health)
	}

	postPNG(t, http.DefaultClient, ts.URL+"/classify", testTiles(1, 16, 2)[0])
	resp, err = http.Get(ts.URL + "/statz")
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if snap.Requests != 1 || snap.Tiles != 1 || snap.Batches < 1 {
		t.Fatalf("unexpected snapshot: %+v", snap)
	}
	if snap.P50Millis <= 0 {
		t.Fatalf("p50 latency not recorded: %+v", snap)
	}
}
