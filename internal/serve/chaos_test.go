package serve

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"seaice/internal/chaos"
	"seaice/internal/noise"
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
			_, errs[i] = sched.SubmitTiles(m, tiles[i:i+1], time.Time{})
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
			_, err := sched.SubmitTiles(m, tiles[i:i+1], time.Time{})
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
			if _, err := sched.SubmitTiles(m, tiles[i:i+1], time.Time{}); err != nil && !errors.Is(err, ErrOverloaded) {
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
	if _, err := sched.SubmitTiles(engine, []*raster.RGB{q3}, time.Now().Add(time.Minute)); err != ErrOverloaded {
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

// TestSchedulerInvariantsUnderLoad holds the real scheduler, under
// seeded concurrent load and injected faults, to the counting
// invariants of its queueing policy. Six clients each make 16 calls of
// 1–4 tiles, back to back, against 2 workers and a queue of 8 tiles,
// with no deadline, a generous one, a tight one or one already spent.
// From the third batch pickup on every batch is slowed by 10ms
// (slownode), and the worker picking up the seventh panics (serve).
//
// Every call ends as served, ErrOverloaded, *InfeasibleError or
// ErrDeadlineExpired; the engine is never handed a tile past its
// deadline; each tile of a served call completes exactly one forward
// pass and a refused call's tiles none; and Stats accounts every
// submitted tile once: the refused calls' tiles, the expired tiles and
// the tiles batched add up to all of them. Once the load is over and
// admission has learned the slowed batches, a call with a budget below
// one batch time is refused as *InfeasibleError.
func TestSchedulerInvariantsUnderLoad(t *testing.T) {
	const (
		clients, calls = 6, 16
		// The worker triages a batch a few instructions before the engine
		// runs it, so a tile may expire in between; one this late at the
		// engine was not triaged right before compute.
		slack = 5 * time.Millisecond
	)
	var mu sync.Mutex
	deadlines := map[*raster.RGB]time.Time{}
	passes := map[*raster.RGB]int{}
	engine := &hookEngine{before: func(batch []*raster.RGB) {
		now := time.Now()
		mu.Lock()
		defer mu.Unlock()
		for _, tile := range batch {
			if d := deadlines[tile]; !d.IsZero() && now.Sub(d) > slack {
				t.Errorf("the engine was handed a tile %v past its deadline", now.Sub(d))
			}
			passes[tile]++
		}
	}}

	cfg := schedCfg()
	cfg.Workers = 2
	cfg.MaxBatch = 4
	cfg.QueueSize = 8
	cfg.Chaos = serveInjector(t, "5:slownode@2:10ms,serve@6")
	stats := NewStats()
	leaked := goroutineBaseline(t)
	sched := NewScheduler(cfg, stats)

	type call struct {
		tiles []*raster.RGB
		err   error
	}
	const warmRounds = 4
	pool := testTiles(clients*calls*4+warmRounds*cfg.MaxBatch*(cfg.MaxBatch+1)/2+1, 16, 40)
	made := make([][]call, clients)
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := noise.NewRNG(41, uint64(c))
			own := pool[c*calls*4 : (c+1)*calls*4]
			for range calls {
				tiles := own[:1+rng.Intn(4)]
				own = own[len(tiles):]
				var deadline time.Time
				switch now := time.Now(); rng.Intn(4) {
				case 1:
					deadline = now.Add(time.Minute)
				case 2:
					deadline = now.Add(10*time.Millisecond + time.Duration(rng.Intn(20))*time.Millisecond)
				case 3:
					deadline = now.Add(-time.Millisecond)
				}
				mu.Lock()
				for _, tile := range tiles {
					deadlines[tile] = deadline
				}
				mu.Unlock()
				_, err := sched.SubmitTiles(engine, tiles, deadline)
				made[c] = append(made[c], call{tiles, err})
			}
		}()
	}
	wg.Wait()

	// Once the model has learned the slowed batches, a call whose budget
	// is below one batch time is refused at admission, not admitted to
	// expire in the queue. Each batch size is warmed first, one call at a
	// time, so every size has been observed under slownode.
	spare := pool[clients*calls*4:]
	for range warmRounds {
		for size := 1; size <= cfg.MaxBatch; size++ {
			_, err := sched.SubmitTiles(engine, spare[:size], time.Time{})
			made[0] = append(made[0], call{spare[:size], err})
			spare = spare[size:]
		}
	}
	const budget = 10 * time.Millisecond / 4 // a quarter of the slownode delay
	probe := call{tiles: spare[:1]}
	deadline := time.Now().Add(budget)
	mu.Lock()
	deadlines[probe.tiles[0]] = deadline
	mu.Unlock()
	_, probe.err = sched.SubmitTiles(engine, probe.tiles, deadline)
	made[0] = append(made[0], probe)
	if inf := (*InfeasibleError)(nil); !errors.As(probe.err, &inf) {
		t.Errorf("a call with a %v budget, under a learned batch time of %v, ended with %v; want *InfeasibleError at admission",
			budget, sched.Model().PredictWait(0, cfg.Workers), probe.err)
	}
	sched.Close()
	leaked()

	var submitted, refused, served, overloaded, infeasible, expired int
	for _, mine := range made {
		for _, c := range mine {
			submitted += len(c.tiles)
			var inf *InfeasibleError
			lo, hi := 0, 0 // forward passes per tile
			switch {
			case c.err == nil:
				served++
				lo, hi = 1, 1
			case c.err == ErrOverloaded:
				overloaded++
				refused += len(c.tiles)
			case errors.As(c.err, &inf):
				infeasible++
				refused += len(c.tiles)
			case c.err == ErrDeadlineExpired:
				expired++
				hi = 1 // some of its tiles may have been computed before the rest expired
			default:
				t.Fatalf("a call of %d tiles failed with %v", len(c.tiles), c.err)
			}
			for _, tile := range c.tiles {
				if n := passes[tile]; n < lo || n > hi {
					t.Errorf("a tile of a call answered %v completed %d forward passes", c.err, n)
				}
			}
		}
	}
	t.Logf("%d calls served, %d overloaded, %d infeasible, %d expired", served, overloaded, infeasible, expired)

	snap := stats.Snapshot(0, 0, 0, 0)
	if snap.Rejected != int64(overloaded) || snap.DeadlineRejected != int64(infeasible) {
		t.Errorf("stats count %d overloaded and %d infeasible calls, the callers saw %d and %d",
			snap.Rejected, snap.DeadlineRejected, overloaded, infeasible)
	}
	batched := int(math.Round(snap.AvgBatchSize * float64(snap.Batches)))
	computed := 0
	for _, n := range passes {
		computed += n
	}
	if batched != computed {
		t.Errorf("stats count %d tiles batched, the engine ran %d", batched, computed)
	}
	if got := refused + int(snap.ExpiredDropped) + batched; got != submitted {
		t.Errorf("%d refused + %d expired + %d batched tiles = %d, want the %d submitted",
			refused, snap.ExpiredDropped, batched, got, submitted)
	}
	if cfg.Chaos.Remaining() != 0 {
		t.Errorf("%d faults undelivered; delivered: %v", cfg.Chaos.Remaining(), cfg.Chaos.Events())
	}
	if got := stats.WorkerRestarts(); got != 1 {
		t.Errorf("worker restarts = %d, want 1", got)
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
