package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"seaice/internal/core"
	"seaice/internal/raster"
	"seaice/internal/scene"
)

// workerNode spins up one worker server sharing the cluster's model and
// returns it with its host:port address.
func workerNode(t *testing.T, cfg Config) (*Server, *httptest.Server, string) {
	t.Helper()
	srv, ts := testServer(t, cfg)
	return srv, ts, strings.TrimPrefix(ts.URL, "http://")
}

// testCoordinator fronts the given nodes with a coordinator and its own
// HTTP listener.
func testCoordinator(t *testing.T, cfg Config, nodes []string) (*Coordinator, *httptest.Server) {
	t.Helper()
	return serveCoordinator(t, CoordConfig{
		TileSize:    cfg.TileSize,
		Nodes:       nodes,
		Build:       cfg.Build,
		HealthEvery: time.Hour, // request-path detection only, unless a test shortens it
		Timeout:     5 * time.Second,
		Logf:        t.Logf,
	})
}

// serveCoordinator starts a coordinator with its own HTTP listener, both
// closed when the test ends.
func serveCoordinator(t *testing.T, cc CoordConfig) (*Coordinator, *httptest.Server) {
	t.Helper()
	coord, err := NewCoordinator(cc)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(coord.Handler())
	t.Cleanup(func() {
		ts.Close()
		coord.Close()
	})
	return coord, ts
}

// testScene renders a deterministic multi-tile scene.
func testSceneImg(t *testing.T, seed uint64, w, h int) *raster.RGB {
	t.Helper()
	sceneCfg := scene.DefaultConfig(seed)
	sceneCfg.W, sceneCfg.H = w, h
	sc, err := scene.Generate(sceneCfg)
	if err != nil {
		t.Fatal(err)
	}
	return sc.Image
}

// TestCoordinatorShardedServe: a 2-node cluster must return the exact
// bytes a single server returns, each tile must be classified and cached
// by exactly one node (no duplicate caching), and a repeat request must
// be answered fully from the nodes' caches.
func TestCoordinatorShardedServe(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TileSize = 32
	srvA, _, addrA := workerNode(t, cfg)
	srvB, _, addrB := workerNode(t, cfg)
	coord, cts := testCoordinator(t, cfg, []string{addrA, addrB})

	img := testSceneImg(t, 33, 128, 128) // 16 tiles at 32²

	// Golden: the same scene through one standalone server.
	_, single := testServer(t, cfg)
	_, want := postPNG(t, http.DefaultClient, single.URL+"/classify", img)

	resp, got := postPNG(t, http.DefaultClient, cts.URL+"/classify", img)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("sharded label map differs from single-server output")
	}

	// No duplicate caching: across the cluster, each distinct tile hash
	// was computed exactly once — total misses equal distinct hashes.
	distinct := distinctTileKeys(t, cfg, img)
	_, missA := srvA.cache.Counters()
	_, missB := srvB.cache.Counters()
	if int(missA+missB) != distinct {
		t.Fatalf("cluster cache misses %d+%d, want %d distinct tile hashes (duplicate caching?)",
			missA, missB, distinct)
	}
	if missA == 0 || missB == 0 {
		t.Fatalf("tile shares per node: %d/%d — a node received nothing, sharding untested", missA, missB)
	}

	// Repeat request: no new misses anywhere, byte-identical answer.
	resp, again := postPNG(t, http.DefaultClient, cts.URL+"/classify", img)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(again, want) {
		t.Fatal("repeat sharded request diverged")
	}
	_, missA2 := srvA.cache.Counters()
	_, missB2 := srvB.cache.Counters()
	if missA2 != missA || missB2 != missB {
		t.Fatalf("repeat request caused new misses: %d→%d, %d→%d", missA, missA2, missB, missB2)
	}
	if s := coord.Stats(); s.Requests != 2 || s.Rerouted != 0 {
		t.Fatalf("unexpected coordinator stats: %+v", s)
	}
}

// distinctTileKeys computes how many distinct content hashes the scene's
// filtered tiles produce under the workers' default model name.
func distinctTileKeys(t *testing.T, cfg Config, img *raster.RGB) int {
	t.Helper()
	filtered := filteredScene(t, cfg, img)
	tiles, _, err := raster.Split(filtered, cfg.TileSize, cfg.TileSize)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[CacheKey]bool{}
	for _, tl := range tiles {
		seen[TileKey("default", tl.Image)] = true
	}
	return len(seen)
}

// TestCoordinatorRerouteOnNodeLoss kills one of two workers and expects
// the next request to succeed with identical bytes, served entirely by
// the survivor via clockwise rerouting.
func TestCoordinatorRerouteOnNodeLoss(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TileSize = 32
	_, tsA, addrA := workerNode(t, cfg)
	srvB, _, addrB := workerNode(t, cfg)
	coord, cts := testCoordinator(t, cfg, []string{addrA, addrB})

	img := testSceneImg(t, 34, 128, 128)
	resp, want := postPNG(t, http.DefaultClient, cts.URL+"/classify", img)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("baseline status %d: %s", resp.StatusCode, want)
	}

	tsA.Close() // node 0 dies

	resp, got := postPNG(t, http.DefaultClient, cts.URL+"/classify", img)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-kill status %d: %s", resp.StatusCode, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("rerouted label map differs from pre-kill output")
	}
	s := coord.Stats()
	if len(s.NodesDown) != 1 || s.NodesDown[0] != 0 {
		t.Fatalf("coordinator should have marked node 0 down: %+v", s)
	}
	if s.Rerouted == 0 {
		t.Fatal("no tiles recorded as rerouted")
	}
	// The survivor alone now holds every tile's answer.
	hitsB, missB := srvB.cache.Counters()
	if int(hitsB+missB) == 0 {
		t.Fatal("survivor served nothing")
	}

	// /healthz reflects the degraded-but-serving cluster.
	hresp, err := http.Get(cts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status    string `json:"status"`
		NodesDown []int  `json:"nodes_down"`
	}
	if err := json.NewDecoder(hresp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if health.Status != "ok" || len(health.NodesDown) != 1 {
		t.Fatalf("unexpected coordinator health: %+v", health)
	}
}

// TestCoordinatorAllNodesDown: with every worker dead the coordinator
// answers 503 instead of hanging or spinning.
func TestCoordinatorAllNodesDown(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TileSize = 32
	_, tsA, addrA := workerNode(t, cfg)
	_, cts := testCoordinator(t, cfg, []string{addrA})
	tsA.Close()

	img := testSceneImg(t, 35, 64, 64)
	resp, body := postPNG(t, http.DefaultClient, cts.URL+"/classify", img)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d (%s), want 503", resp.StatusCode, body)
	}
}

// TestCoordinator429Propagation: a worker's backpressure rejection must
// reach the client verbatim — status, Retry-After, and JSON queue-depth
// body — not be treated as a node failure.
func TestCoordinator429Propagation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TileSize = 32
	overload := overloadBody{Error: "inference queue full, retry later", QueueDepth: 9, QueueSize: 16}
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Retry-After", "7")
		w.WriteHeader(http.StatusTooManyRequests)
		json.NewEncoder(w).Encode(overload)
	}))
	defer stub.Close()

	_, cts := testCoordinator(t, cfg, []string{strings.TrimPrefix(stub.URL, "http://")})
	img := testSceneImg(t, 36, 64, 64)
	resp, body := postPNG(t, http.DefaultClient, cts.URL+"/classify", img)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d (%s), want 429", resp.StatusCode, body)
	}
	if got := resp.Header.Get("Retry-After"); got != "7" {
		t.Fatalf("Retry-After %q, want 7", got)
	}
	var decoded overloadBody
	if err := json.Unmarshal(body, &decoded); err != nil {
		t.Fatalf("429 body is not JSON: %v (%s)", err, body)
	}
	if decoded != overload {
		t.Fatalf("429 body %+v not propagated verbatim (want %+v)", decoded, overload)
	}
}

// TestServerOverloadedResponse: the worker's own 429 carries Retry-After
// and a JSON body with the live queue depth.
func TestServerOverloadedResponse(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TileSize = 16
	srv, _ := testServer(t, cfg)
	rec := httptest.NewRecorder()
	srv.writeOverloaded(rec)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("429 missing Retry-After header")
	}
	var body overloadBody
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("429 body is not JSON: %v", err)
	}
	if body.QueueSize != cfg.QueueSize || body.Error == "" {
		t.Fatalf("unexpected 429 body: %+v", body)
	}
}

// TestRawFilteredRoundTrip: format=raw returns one Class byte per pixel
// with dimensions in X-Seaice-Dims, and filtered=1 skips the server-side
// filter — together the worker-node contract the coordinator relies on.
func TestRawFilteredRoundTrip(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TileSize = 32
	cfg.CacheSize = 0
	_, ts := testServer(t, cfg)

	img := testSceneImg(t, 37, 64, 64)
	filtered := filteredScene(t, cfg, img)

	// PNG path on the raw scene = golden.
	resp, wantPNG := postPNG(t, http.DefaultClient, ts.URL+"/classify", img)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}

	// Raw path on the pre-filtered scene must describe the same labels.
	resp, raw := postPNG(t, http.DefaultClient, ts.URL+"/classify?filtered=1&format=raw", filtered)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("raw status %d: %s", resp.StatusCode, raw)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Fatalf("raw Content-Type %q", ct)
	}
	if dims := resp.Header.Get("X-Seaice-Dims"); dims != "64x64" {
		t.Fatalf("X-Seaice-Dims %q, want 64x64", dims)
	}
	if len(raw) != 64*64 {
		t.Fatalf("raw body %d bytes, want %d", len(raw), 64*64)
	}
	var stats classifyStats
	if err := json.Unmarshal([]byte(resp.Header.Get("X-Seaice-Stats")), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.FilterUsed {
		t.Fatal("filtered=1 request still reports server-side filtering")
	}
	labels := raster.NewLabels(64, 64)
	for i, b := range raw {
		labels.Pix[i] = raster.Class(b)
	}
	var rendered bytes.Buffer
	if err := labels.Render().EncodePNG(&rendered); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rendered.Bytes(), wantPNG) {
		t.Fatal("raw labels disagree with the PNG path")
	}
}

// filteredScene applies the server's filter stage out of band.
func filteredScene(t *testing.T, cfg Config, img *raster.RGB) *raster.RGB {
	t.Helper()
	f := core.FilterScene(img, cfg.Build)
	if f.W != img.W || f.H != img.H {
		t.Fatalf("filter changed dimensions: %dx%d → %dx%d", img.W, img.H, f.W, f.H)
	}
	return f
}

// TestCoordinatorHealthLoopRecovery: the health loop marks a dead node
// down and, once it answers again, brings it back into rotation.
func TestCoordinatorHealthLoopRecovery(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TileSize = 32
	var healthy atomic.Bool
	healthy.Store(true)
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			if healthy.Load() {
				w.WriteHeader(http.StatusOK)
			} else {
				w.WriteHeader(http.StatusServiceUnavailable)
			}
			return
		}
		http.NotFound(w, r)
	}))
	defer stub.Close()

	coord, err := NewCoordinator(CoordConfig{
		TileSize:    cfg.TileSize,
		Nodes:       []string{strings.TrimPrefix(stub.URL, "http://")},
		Build:       cfg.Build,
		HealthEvery: 10 * time.Millisecond,
		Timeout:     time.Second,
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	waitFor := func(want bool, what string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if (coord.breakers[0].State() != BreakerClosed) == want {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Fatalf("timed out waiting for node to be %s", what)
	}
	healthy.Store(false)
	waitFor(true, "marked down")
	healthy.Store(true)
	waitFor(false, "marked up again")
}
