package serve

import (
	"errors"
	"fmt"
	"slices"
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

// TestChaosWorkerRestartRespectsBound asserts the requeue path keeps the
// overload semantics: with a tiny queue, requests arriving across the
// crash may be shed at admission — but only as ErrOverloaded (the 429
// path), never as silent loss — the crashed batch itself is requeued
// past the bound rather than shed, and the total always accounts.
func TestChaosWorkerRestartRespectsBound(t *testing.T) {
	m := testModel(t, 8)
	cfg := schedCfg()
	cfg.Workers = 1
	cfg.MaxBatch = 4
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
	leaked := goroutineBaseline(t)
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
	leaked()
}

// TestChaosSchedulerInvariants holds the real scheduler to the two
// invariants the load simulator counts, from the callers' side: a
// request that was admitted never fails with ErrOverloaded — not even
// when its batch crashes into a queue that is already at its bound —
// and the engine never sees a tile whose deadline had passed.
//
// One worker, batches of up to 4, a queue of 3, and an engine that
// panics on its second forward pass (a panic escaping a session takes
// the same restart path as an injected one). h holds the worker while
// a and b (one request) and x (a 100ms deadline) queue behind it. Then
// the worker takes a, b and x as one batch; while that pass is held, p,
// q1 and q2 fill the queue and q3 is refused. x's deadline passes and
// the pass panics: the batch goes back in front of p — 6 queued against
// a bound of 3. The replacement worker takes it again, answers x as
// expired and runs a and b, then p, q1 and q2.
func TestChaosSchedulerInvariants(t *testing.T) {
	tiles := testTiles(4, 16, 30)
	h, a, b, x := tiles[0], tiles[1], tiles[2], tiles[3]
	other := testTiles(4, 32, 31)
	p, q1, q2, q3 := other[0], other[1], other[2], other[3]

	var mu sync.Mutex
	deadlines := map[*raster.RGB]time.Time{}
	seen := map[*raster.RGB]int{} // by completed forward passes
	var passes [][]*raster.RGB
	gate, entered := make(chan struct{}), make(chan struct{}, 8)
	engine := &hookEngine{before: func(batch []*raster.RGB) {
		now := time.Now()
		mu.Lock()
		for _, tile := range batch {
			if d := deadlines[tile]; !d.IsZero() && now.After(d) {
				t.Errorf("the engine was handed a tile %v past its deadline", now.Sub(d))
			}
		}
		passes = append(passes, batch)
		pass := len(passes)
		mu.Unlock()
		entered <- struct{}{}
		<-gate
		if pass == 2 {
			panic("engine fault in the second forward pass")
		}
		mu.Lock()
		for _, tile := range batch {
			seen[tile]++
		}
		mu.Unlock()
	}}

	cfg := schedCfg()
	cfg.MaxBatch = 4
	cfg.QueueSize = 3
	stats := NewStats()
	leaked := goroutineBaseline(t)
	sched := NewScheduler(cfg, stats)

	errs := map[*raster.RGB]error{}
	var wg sync.WaitGroup
	submit := func(budget time.Duration, tiles ...*raster.RGB) {
		deadline := time.Now().Add(budget)
		mu.Lock()
		for _, tile := range tiles {
			deadlines[tile] = deadline
		}
		mu.Unlock()
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := sched.SubmitTiles(engine, tiles, deadline)
			mu.Lock()
			for _, tile := range tiles {
				errs[tile] = err
			}
			mu.Unlock()
		}()
	}
	// queued polls the scheduler's queue depth (under its lock).
	queued := func(what string, depth int) {
		t.Helper()
		for end := time.Now().Add(5 * time.Second); sched.QueueDepth() != depth; time.Sleep(time.Millisecond) {
			if time.Now().After(end) {
				t.Fatalf("timed out waiting until %s", what)
			}
		}
	}
	pass := func(i int) []*raster.RGB {
		mu.Lock()
		defer mu.Unlock()
		return passes[i]
	}

	submit(time.Minute, h)
	<-entered // h holds the worker
	submit(time.Minute, a, b)
	queued("a and b queue", 2)
	submit(100*time.Millisecond, x)
	queued("x queues behind them", 3)
	gate <- struct{}{}
	<-entered
	if got := pass(1); !slices.Equal(got, []*raster.RGB{a, b, x}) {
		t.Fatalf("second pass ran %d tiles, want a, b and x", len(got))
	}
	submit(time.Minute, p)
	submit(time.Minute, q1)
	submit(time.Minute, q2)
	queued("p, q1 and q2 fill the queue", 3)
	if _, err := sched.SubmitDeadline(engine, q3, time.Now().Add(time.Minute)); err != ErrOverloaded {
		t.Fatalf("submit against a full queue: %v, want ErrOverloaded", err)
	}
	mu.Lock()
	xDeadline := deadlines[x]
	mu.Unlock()
	time.Sleep(time.Until(xDeadline) + 10*time.Millisecond) // x expires inside the held pass
	gate <- struct{}{}                                      // the pass panics; a, b and x requeue past the bound
	<-entered                                               // x answered expired; a and b are in the engine
	if got := stats.WorkerRestarts(); got != 1 {
		t.Fatalf("worker restarts = %d, want 1 (the second pass panics)", got)
	}
	if got := pass(2); !slices.Equal(got, []*raster.RGB{a, b}) {
		t.Fatalf("the requeued batch re-ran %d tiles, want a and b", len(got))
	}
	close(gate)
	wg.Wait()
	sched.Close()
	leaked()

	for name, tile := range map[string]*raster.RGB{"h": h, "a": a, "b": b, "p": p, "q1": q1, "q2": q2} {
		if errs[tile] != nil {
			t.Errorf("%s was admitted and then failed: %v", name, errs[tile])
		}
		if seen[tile] != 1 {
			t.Errorf("%s completed %d forward passes, want 1", name, seen[tile])
		}
	}
	if errs[x] != ErrDeadlineExpired || seen[x] != 0 {
		t.Errorf("x (100ms deadline, requeued past it): err %v, completed %d passes; want ErrDeadlineExpired and none", errs[x], seen[x])
	}
	snap := stats.Snapshot(0, 0, 0, 0)
	if snap.Rejected != 1 || snap.ExpiredDropped != 1 || snap.DeadlineRejected != 0 {
		t.Errorf("stats: %d rejected, %d expired, %d infeasible; want 1 (q3), 1 (x), 0",
			snap.Rejected, snap.ExpiredDropped, snap.DeadlineRejected)
	}
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
