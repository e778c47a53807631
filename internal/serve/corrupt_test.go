package serve

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestCorruptModelFailsWarmup asserts a model whose checkpoint was
// already poisoned at load never makes it into serving: the startup
// warmup prediction trips the non-finite guard and NewServer fails.
func TestCorruptModelFailsWarmup(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TileSize = 16

	m := testModel(t, 1)
	ps := m.Params()
	ps[len(ps)-1].W.Data[0] = math.NaN()

	reg := NewRegistry()
	if err := reg.Add("default", m); err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(cfg, reg)
	if err == nil {
		srv.Close()
		t.Fatal("NewServer accepted a model with non-finite logits")
	}
	if !strings.Contains(err.Error(), "non-finite") {
		t.Fatalf("warmup error %q does not name the non-finite logits", err)
	}
}

// TestCorruptModelRejectedWith400 corrupts a weight after the server is
// up (in-memory corruption mid-serving) and asserts /classify rejects
// the non-finite prediction with HTTP 400 — and keeps rejecting it,
// proving the garbage result never entered the cache: it holds nothing
// afterwards, and once the weight is repaired the same pixels are a
// computed miss, not a served entry.
func TestCorruptModelRejectedWith400(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TileSize = 16

	m := testModel(t, 1)
	reg := NewRegistry()
	if err := reg.Add("default", m); err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(cfg, reg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		srv.Close()
	}()

	// Sessions read the registry's model in place: the flipped bit is
	// visible to every subsequent forward pass.
	ps := m.Params()
	healthy := ps[len(ps)-1].W.Data[0]
	ps[len(ps)-1].W.Data[0] = math.NaN()

	tile := testTiles(1, 16, 6)[0]
	for attempt := 0; attempt < 2; attempt++ {
		resp, body := postPNG(t, http.DefaultClient, ts.URL+"/classify", tile)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("attempt %d: status %d, want 400 (body %q)", attempt, resp.StatusCode, body)
		}
		if !strings.Contains(string(body), "non-finite") {
			t.Fatalf("attempt %d: body %q does not name the non-finite logits", attempt, body)
		}
	}
	if n := srv.cache.Len(); n != 0 {
		t.Fatalf("rejected predictions left %d cache entries", n)
	}

	ps[len(ps)-1].W.Data[0] = healthy
	resp, body := postPNG(t, http.DefaultClient, ts.URL+"/classify", tile)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repaired model: status %d (body %q)", resp.StatusCode, body)
	}
	var stats classifyStats
	if err := json.Unmarshal([]byte(resp.Header.Get("X-Seaice-Stats")), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.CacheHits != 0 || srv.cache.Len() != 1 {
		t.Fatalf("repaired request: %d hits, %d entries; want a miss that stores one", stats.CacheHits, srv.cache.Len())
	}
}
