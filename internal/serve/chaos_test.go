package serve

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"seaice/internal/chaos"
	"seaice/internal/raster"
)

// serveInjector parses a chaos spec for the serving tests.
func serveInjector(t *testing.T, spec string) *chaos.Injector {
	t.Helper()
	sched, err := chaos.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	return chaos.New(sched, 0)
}

// TestChaosWorkerRestartServesEverything asserts injected worker panics
// are absorbed by the self-healing pool: every submitted request is
// answered (the crashed batch requeues), the restarts are accounted,
// and the pool returns to full strength.
func TestChaosWorkerRestartServesEverything(t *testing.T) {
	m := testModel(t, 7)
	cfg := schedCfg()
	cfg.Workers = 2
	cfg.MaxBatch = 4
	cfg.BatchWait = time.Millisecond
	cfg.QueueSize = 256 // roomy: no request should be shed
	cfg.Chaos = serveInjector(t, "3:serve@0,serve@4")
	stats := NewStats()
	sched := NewScheduler(cfg, stats)
	defer sched.Close()

	const n = 48
	tiles := testTiles(n, 16, 5)
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = sched.Submit(m, tiles[i])
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("submit %d: %v (queued requests must survive worker panics)", i, err)
		}
	}
	if cfg.Chaos.Remaining() != 0 {
		t.Fatalf("%d serve faults undelivered", cfg.Chaos.Remaining())
	}
	if got := stats.WorkerRestarts(); got != 2 {
		t.Fatalf("worker restarts = %d, want 2", got)
	}
	// The pool self-heals back to its configured strength.
	deadline := time.Now().Add(2 * time.Second)
	for sched.LiveWorkers() != cfg.Workers && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if live := sched.LiveWorkers(); live != cfg.Workers {
		t.Fatalf("live workers = %d, want %d", live, cfg.Workers)
	}
}

// TestChaosWorkerRestartRespectsBound asserts the requeue path never
// exceeds the existing overload semantics: with a tiny queue, a crashed
// batch may shed requests — but only as ErrOverloaded (the 429 path),
// never as silent loss, and the total always accounts.
func TestChaosWorkerRestartRespectsBound(t *testing.T) {
	m := testModel(t, 8)
	cfg := schedCfg()
	cfg.Workers = 1
	cfg.MaxBatch = 4
	cfg.BatchWait = 5 * time.Millisecond
	cfg.QueueSize = 2
	cfg.Chaos = serveInjector(t, "9:serve@0")
	stats := NewStats()
	sched := NewScheduler(cfg, stats)
	defer sched.Close()

	const n = 24
	tiles := testTiles(n, 16, 6)
	var wg sync.WaitGroup
	var mu sync.Mutex
	ok, overloaded := 0, 0
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := sched.Submit(m, tiles[i])
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				ok++
			case errors.Is(err, ErrOverloaded):
				overloaded++
			default:
				t.Errorf("submit %d: unexpected error %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	if ok+overloaded != n {
		t.Fatalf("accounted %d of %d requests", ok+overloaded, n)
	}
	if ok == 0 {
		t.Fatal("nothing succeeded after the restart")
	}
	if got := stats.WorkerRestarts(); got != 1 {
		t.Fatalf("worker restarts = %d, want 1", got)
	}
	t.Logf("%d served, %d shed as 429 across the restart", ok, overloaded)
}

// TestChaosSchedulerCloseAfterRestart asserts a pool that has been
// through a restart still drains and closes cleanly.
func TestChaosSchedulerCloseAfterRestart(t *testing.T) {
	m := testModel(t, 9)
	cfg := schedCfg()
	cfg.Workers = 2
	cfg.QueueSize = 64
	cfg.Chaos = serveInjector(t, "2:serve@1")
	sched := NewScheduler(cfg, nil)

	tiles := testTiles(8, 16, 7)
	var wg sync.WaitGroup
	for i := range tiles {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := sched.Submit(m, tiles[i]); err != nil && !errors.Is(err, ErrOverloaded) {
				t.Errorf("submit %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	sched.Close()
	sched.Close() // idempotent after a restart too
}

// TestCacheConcurrentEviction hammers the LRU from many goroutines with
// a keyspace larger than its capacity, so gets, puts, and evictions
// interleave constantly — the -race target for the cache (the CI race
// job runs this package).
func TestCacheConcurrentEviction(t *testing.T) {
	c := NewCache(8, 4)
	keys := make([]CacheKey, 64)
	labels := make([]*raster.Labels, len(keys))
	for i := range keys {
		tile := raster.NewRGB(4, 4)
		tile.Pix[0] = uint8(i)
		keys[i] = TileKey(fmt.Sprintf("m%d", i%3), tile)
		labels[i] = raster.NewLabels(4, 4)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 200; round++ {
				k := (g*31 + round) % len(keys)
				if v, hit := c.Get(keys[k], 1); hit && v == nil {
					t.Error("hit returned nil labels")
				}
				c.Put(keys[k], labels[k])
				if c.Len() > 8 {
					t.Error("cache exceeded capacity")
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 8 {
		t.Fatalf("cache holds %d entries, capacity 8", c.Len())
	}
	hits, misses := c.Counters()
	if hits+misses == 0 {
		t.Fatal("no lookups accounted")
	}
}
