package serve

import (
	"path/filepath"
	"testing"
	"time"

	"seaice/internal/raster"
)

func labelsOf(class raster.Class, size int) *raster.Labels {
	l := raster.NewLabels(size, size)
	for i := range l.Pix {
		l.Pix[i] = class
	}
	return l
}

// TestTileKeyDiscriminates makes sure the content hash separates model
// names, dimensions, and pixel contents.
func TestTileKeyDiscriminates(t *testing.T) {
	a := testTiles(1, 16, 1)[0]
	b := a.Clone()
	if TileKey("m", a) != TileKey("m", b) {
		t.Fatal("identical tiles hash differently")
	}
	b.Pix[0] ^= 1
	if TileKey("m", a) == TileKey("m", b) {
		t.Fatal("differing pixels hash equal")
	}
	if TileKey("m1", a) == TileKey("m2", a) {
		t.Fatal("differing models hash equal")
	}
	// Same byte count, different geometry.
	wide, tall := raster.NewRGB(32, 8), raster.NewRGB(8, 32)
	if TileKey("m", wide) == TileKey("m", tall) {
		t.Fatal("differing geometry hashes equal")
	}
}

// TestCacheLRU exercises eviction order and the recency bump on Get.
func TestCacheLRU(t *testing.T) {
	c := NewCache(2, 8)
	tiles := testTiles(3, 8, 2)
	k0, k1, k2 := TileKey("m", tiles[0]), TileKey("m", tiles[1]), TileKey("m", tiles[2])

	c.Put(k0, labelsOf(raster.ClassWater, 8))
	c.Put(k1, labelsOf(raster.ClassThinIce, 8))
	if _, ok := c.Get(k0, 1); !ok {
		t.Fatal("k0 missing before capacity hit")
	}
	// k1 is now least recently used; inserting k2 must evict it.
	c.Put(k2, labelsOf(raster.ClassThickIce, 8))
	if _, ok := c.Get(k1, 1); ok {
		t.Fatal("k1 survived eviction")
	}
	if _, ok := c.Get(k0, 1); !ok {
		t.Fatal("k0 evicted despite recent use")
	}
	if got, ok := c.Get(k2, 1); !ok || got.Pix[0] != raster.ClassThickIce {
		t.Fatal("k2 missing or wrong payload")
	}
	if c.Len() != 2 {
		t.Fatalf("len %d, want 2", c.Len())
	}
	hits, misses := c.Counters()
	if hits != 3 || misses != 1 {
		t.Fatalf("counters %d/%d, want 3 hits / 1 miss", hits, misses)
	}
}

// TestCacheDisabled checks that a zero-capacity cache is inert.
func TestCacheDisabled(t *testing.T) {
	c := NewCache(0, 8)
	k := TileKey("m", testTiles(1, 8, 3)[0])
	c.Put(k, labelsOf(raster.ClassWater, 8))
	if _, ok := c.Get(k, 1); ok {
		t.Fatal("disabled cache returned a hit")
	}
	if c.Len() != 0 {
		t.Fatal("disabled cache stored an entry")
	}
}

// TestStatsPercentiles feeds a known latency distribution through the
// recorder.
func TestStatsPercentiles(t *testing.T) {
	s := NewStats()
	for i := 1; i <= 100; i++ {
		s.RecordRequest(time.Duration(i)*time.Millisecond, 1, false)
	}
	snap := s.Snapshot(3, 4, 30, 70)
	if snap.Requests != 100 || snap.Tiles != 100 {
		t.Fatalf("counts %+v", snap)
	}
	if snap.P50Millis < 45 || snap.P50Millis > 55 {
		t.Fatalf("p50 %.1f ms, want ≈50", snap.P50Millis)
	}
	if snap.P99Millis < 95 || snap.P99Millis > 100 {
		t.Fatalf("p99 %.1f ms, want ≈99", snap.P99Millis)
	}
	if snap.QueueDepth != 3 {
		t.Fatalf("queue depth %d, want 3", snap.QueueDepth)
	}
	if snap.CacheHitRate < 0.29 || snap.CacheHitRate > 0.31 {
		t.Fatalf("cache hit rate %.2f, want 0.30", snap.CacheHitRate)
	}
}

// TestRegistry covers load/lookup/default/error paths, including a
// corrupt checkpoint failing cleanly.
func TestRegistry(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.ckpt")
	m := testModel(t, 11)
	if err := m.SaveFile(good); err != nil {
		t.Fatal(err)
	}

	r := NewRegistry()
	if err := r.Load("man", good, "f64"); err != nil {
		t.Fatal(err)
	}
	if err := r.Load("auto", good, "f32"); err != nil {
		t.Fatal(err)
	}
	if r.Default() != "man" {
		t.Fatalf("default %q, want first-registered \"man\"", r.Default())
	}
	if _, err := r.Get(""); err != nil {
		t.Fatalf("default lookup: %v", err)
	}
	if _, err := r.Get("auto"); err != nil {
		t.Fatalf("named lookup: %v", err)
	}
	if _, err := r.Get("nope"); err == nil {
		t.Fatal("unknown model lookup succeeded")
	}
	if err := r.Load("man", good, "f64"); err == nil {
		t.Fatal("duplicate name accepted")
	}
	if err := r.Load("bad", filepath.Join(dir, "missing.ckpt"), "f64"); err == nil {
		t.Fatal("missing checkpoint accepted")
	}
	if got := r.Names(); len(got) != 2 || got[0] != "auto" || got[1] != "man" {
		t.Fatalf("names %v", got)
	}
	if err := r.Warm(16); err != nil {
		t.Fatalf("warm: %v", err)
	}
	// FastConfig depth 3 needs multiples of 8; 12 must be rejected.
	if err := r.Warm(12); err == nil {
		t.Fatal("warm accepted an unservable tile size")
	}
}
