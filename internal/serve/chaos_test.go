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
// One worker, batches of up to 4 collected for 200ms, a queue of 2, and
// the first dispatch panics. a leads; b and x (a 30ms deadline) join it;
// 50ms later p, of another shape, queues behind and ends the wait: the
// batch is dispatched, crashes, and goes back in front of p — 4 queued
// against a bound of 2. The replacement worker re-forms it, answers x as
// expired and blocks in the engine (the test's gate) on a and b, with p
// still queued: q1 fills the queue, and q2 is the one request that may
// see ErrOverloaded — at admission, while nothing can be answering.
func TestChaosSchedulerInvariants(t *testing.T) {
	tiles := testTiles(4, 16, 30)
	a, b, x := tiles[0], tiles[1], tiles[2]
	other := testTiles(3, 32, 31)
	p, q1, q2 := other[0], other[1], other[2]

	var mu sync.Mutex
	deadlines := map[*raster.RGB]time.Time{}
	seen := map[*raster.RGB]int{}
	gate, entered := make(chan struct{}), make(chan struct{}, 8)
	engine := &hookEngine{before: func(batch []*raster.RGB) {
		now := time.Now()
		mu.Lock()
		for _, tile := range batch {
			seen[tile]++
			if d := deadlines[tile]; !d.IsZero() && now.After(d) {
				t.Errorf("the engine was handed a tile %v past its deadline", now.Sub(d))
			}
		}
		mu.Unlock()
		entered <- struct{}{}
		<-gate
	}}

	cfg := schedCfg()
	cfg.MaxBatch = 4
	cfg.BatchWait = 200 * time.Millisecond
	cfg.QueueSize = 2
	cfg.Chaos = serveInjector(t, "5:serve@0")
	stats := NewStats()
	leaked := goroutineBaseline(t)
	sched := NewScheduler(cfg, stats)

	errs := map[*raster.RGB]error{}
	var wg sync.WaitGroup
	submit := func(tile *raster.RGB, budget time.Duration) {
		deadline := time.Now().Add(budget)
		mu.Lock()
		deadlines[tile] = deadline
		mu.Unlock()
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := sched.SubmitDeadline(engine, tile, deadline)
			mu.Lock()
			errs[tile] = err
			mu.Unlock()
		}()
	}
	// await polls a scheduler-side condition (under its lock).
	await := func(what string, cond func() bool) {
		t.Helper()
		for end := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
			sched.mu.Lock()
			ok := cond()
			sched.mu.Unlock()
			if ok {
				return
			}
			if time.Now().After(end) {
				t.Fatalf("timed out waiting until %s", what)
			}
		}
	}

	submit(a, time.Minute)
	await("a leads a batch", func() bool { return len(sched.q.forming) == 1 })
	submit(b, time.Minute)
	submit(x, 30*time.Millisecond)
	await("b and x joined it", func() bool { return len(sched.q.forming[0].reqs) == 3 })
	time.Sleep(50 * time.Millisecond) // x expires in the open batch
	submit(p, time.Minute)
	<-entered // crash, requeue past the bound, re-form, triage: a and b are in the engine
	if got := stats.WorkerRestarts(); got != 1 {
		t.Fatalf("worker restarts = %d, want 1 (the first dispatch panics)", got)
	}
	submit(q1, time.Minute)
	await("p and q1 fill the queue", func() bool { return len(sched.q.queue) == 2 })
	if _, err := sched.SubmitDeadline(engine, q2, time.Now().Add(time.Minute)); err != ErrOverloaded {
		t.Fatalf("submit against a full queue: %v, want ErrOverloaded", err)
	}
	close(gate)
	wg.Wait()
	sched.Close()
	leaked()

	for name, tile := range map[string]*raster.RGB{"a": a, "b": b, "p": p, "q1": q1} {
		if errs[tile] != nil {
			t.Errorf("%s was admitted and then failed: %v", name, errs[tile])
		}
		if seen[tile] != 1 {
			t.Errorf("%s reached the engine %d times, want once", name, seen[tile])
		}
	}
	if errs[x] != ErrDeadlineExpired || seen[x] != 0 {
		t.Errorf("x (30ms deadline, dispatched ≥50ms late): err %v, reached the engine %d times; want ErrDeadlineExpired and never", errs[x], seen[x])
	}
	snap := stats.Snapshot(0, 0, 0, 0)
	if snap.Rejected != 1 || snap.ExpiredDropped != 1 || snap.DeadlineRejected != 0 {
		t.Errorf("stats: %d rejected, %d expired, %d infeasible; want 1 (q2), 1 (x), 0",
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
