package serve

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"seaice/internal/raster"
	"seaice/internal/unet"
)

// schedCfg returns a scheduler-oriented config for tests.
func schedCfg() Config {
	cfg := DefaultConfig()
	cfg.TileSize = 16
	cfg.Workers = 1
	return cfg
}

// hookEngine is an engine whose forward pass is the test's: it calls
// before in the worker — to stall, gate or observe the batch — and
// answers blank labels at no cost, so the scheduler tests built on it
// time the scheduler, not a model.
type hookEngine struct {
	before func(tiles []*raster.RGB)
}

func (e *hookEngine) NewPredictor() unet.Predictor { return e }
func (e *hookEngine) Config() unet.Config          { return unet.Config{} }
func (e *hookEngine) Precision() string            { return "f64" }

func (e *hookEngine) PredictTiles(tiles []*raster.RGB) ([]*raster.Labels, error) {
	e.before(tiles)
	out := make([]*raster.Labels, len(tiles))
	for i, tile := range tiles {
		out[i] = raster.NewLabels(tile.W, tile.H)
	}
	return out, nil
}

// goroutineBaseline records runtime.NumGoroutine() and returns the check
// that it is back there (polling up to 1s): what a scheduler or server
// started after the call must have stopped by the time Close returns.
func goroutineBaseline(t *testing.T) (check func()) {
	before := runtime.NumGoroutine()
	return func() {
		t.Helper()
		for end := time.Now().Add(time.Second); runtime.NumGoroutine() > before && time.Now().Before(end); {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > before {
			t.Fatalf("%d goroutines after Close, %d before the constructor: a goroutine leaked", n, before)
		}
	}
}

// TestSchedulerCoalesces submits one request's tiles and checks that the
// single worker served them in full batches: they enter the queue
// together, so each pickup finds MaxBatch of them waiting.
func TestSchedulerCoalesces(t *testing.T) {
	m := testModel(t, 2)
	cfg := schedCfg()
	cfg.MaxBatch = 8
	stats := NewStats()
	sched := NewScheduler(cfg, stats)
	defer sched.Close()

	const n = 16
	labels, err := sched.SubmitTiles(m, testTiles(n, 16, 3), time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range labels {
		if l == nil || l.W != 16 || l.H != 16 {
			t.Fatalf("tile %d: labels %v", i, l)
		}
	}
	if snap := stats.Snapshot(0, 0, 0, 0); snap.Batches != int64(n/cfg.MaxBatch) || snap.AvgBatchSize != float64(cfg.MaxBatch) {
		t.Fatalf("%d tiles in %d batches (avg %.2f), want %d full batches", n, snap.Batches, snap.AvgBatchSize, n/cfg.MaxBatch)
	}
}

// TestSchedulerMatchesSession checks batched scheduling returns exactly
// what a plain session would.
func TestSchedulerMatchesSession(t *testing.T) {
	m := testModel(t, 4)
	cfg := schedCfg()
	sched := NewScheduler(cfg, nil)
	defer sched.Close()

	tiles := testTiles(12, 16, 8)
	want, err := unet.NewSession(m).PredictTiles(tiles)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	got := make([][]*raster.Labels, len(tiles))
	errs := make([]error, len(tiles))
	for i := range tiles {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = sched.SubmitTiles(m, tiles[i:i+1], time.Time{})
		}(i)
	}
	wg.Wait()
	for i := range tiles {
		if errs[i] != nil {
			t.Fatalf("submit %d: %v", i, errs[i])
		}
		for p := range want[i].Pix {
			if got[i][0].Pix[p] != want[i].Pix[p] {
				t.Fatalf("tile %d pixel %d: scheduler %d, session %d", i, p, got[i][0].Pix[p], want[i].Pix[p])
			}
		}
	}
}

// TestSchedulerMixedShapes interleaves two tile sizes and two models;
// every request must land on a correctly shaped batch.
func TestSchedulerMixedShapes(t *testing.T) {
	m1, m2 := testModel(t, 5), testModel(t, 6)
	cfg := schedCfg()
	cfg.MaxBatch = 4
	sched := NewScheduler(cfg, nil)
	defer sched.Close()

	small := testTiles(6, 16, 10)
	big := testTiles(6, 32, 11)
	var wg sync.WaitGroup
	errs := make([]error, 0, 24)
	var mu sync.Mutex
	submit := func(m *unet.Model[float64], tile *raster.RGB, wantSize int) {
		defer wg.Done()
		labels, err := sched.SubmitTiles(m, []*raster.RGB{tile}, time.Time{})
		if err == nil && (labels[0].W != wantSize || labels[0].H != wantSize) {
			err = fmt.Errorf("labels %dx%d, want %d", labels[0].W, labels[0].H, wantSize)
		}
		mu.Lock()
		errs = append(errs, err)
		mu.Unlock()
	}
	for i := 0; i < 6; i++ {
		wg.Add(4)
		go submit(m1, small[i], 16)
		go submit(m2, small[i], 16)
		go submit(m1, big[i], 32)
		go submit(m2, big[i], 32)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestSchedulerBackpressure fills a tiny queue faster than one worker
// drains it and expects ErrOverloaded, not blocking.
func TestSchedulerBackpressure(t *testing.T) {
	m := testModel(t, 7)
	cfg := schedCfg()
	cfg.QueueSize = 1
	cfg.MaxBatch = 1
	stats := NewStats()
	sched := NewScheduler(cfg, stats)
	defer sched.Close()

	const n = 48
	tiles := testTiles(n, 16, 12)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var ok, overloaded int
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := sched.SubmitTiles(m, tiles[i:i+1], time.Time{})
			mu.Lock()
			defer mu.Unlock()
			switch err {
			case nil:
				ok++
			case ErrOverloaded:
				overloaded++
			default:
				t.Errorf("unexpected error: %v", err)
			}
		}(i)
	}
	wg.Wait()
	if ok == 0 {
		t.Fatal("nothing succeeded")
	}
	if ok+overloaded != n {
		t.Fatalf("accounted %d of %d requests", ok+overloaded, n)
	}
	snap := stats.Snapshot(0, 0, 0, 0)
	if snap.Rejected != int64(overloaded) {
		t.Fatalf("stats count %d rejects, test saw %d", snap.Rejected, overloaded)
	}
	t.Logf("%d served, %d shed", ok, overloaded)
}

// TestSchedulerClose verifies shutdown answers in-flight work and
// rejects later submits.
func TestSchedulerClose(t *testing.T) {
	m := testModel(t, 8)
	cfg := schedCfg()
	leaked := goroutineBaseline(t)
	sched := NewScheduler(cfg, nil)

	tiles := testTiles(8, 16, 13)
	var wg sync.WaitGroup
	errs := make([]error, len(tiles))
	for i := range tiles {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = sched.SubmitTiles(m, tiles[i:i+1], time.Time{})
		}(i)
	}
	wg.Wait()
	sched.Close()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("pre-close submit %d: %v", i, err)
		}
	}
	if _, err := sched.SubmitTiles(m, tiles[:1], time.Time{}); err != ErrClosed {
		t.Fatalf("post-close submit: %v, want ErrClosed", err)
	}
	sched.Close() // idempotent
	leaked()
}

// TestSchedulerMismatchDoesNotWaitForLeader: a request of another tile
// shape belongs to the next idle worker, never to one that is busy with
// a batch it could not join. Before batchQueue a worker collecting
// followers took such a request off the channel as its "pending" next
// leader, so it sat out that worker's whole forward pass — 200ms here,
// on a stalled engine — while the second worker idled.
//
// The 32² request under test is b. x1, a and x2 arrange, on the
// channel-based scheduler this test was written against, that the
// collecting worker is the one a channel send reaches first (Go serves
// blocked receivers in arrival order); b2 follows b.
func TestSchedulerMismatchDoesNotWaitForLeader(t *testing.T) {
	const stall = 200 * time.Millisecond
	engine := &hookEngine{before: func(tiles []*raster.RGB) {
		if tiles[0].W == 16 {
			time.Sleep(stall)
		}
	}}
	cfg := schedCfg()
	cfg.Workers = 2
	cfg.MaxBatch = 2
	sched := NewScheduler(cfg, nil)
	defer sched.Close()

	small, big := testTiles(1, 16, 20)[0], testTiles(4, 32, 21)
	var wg sync.WaitGroup
	took := make([]time.Duration, 5)
	for i, tile := range []*raster.RGB{big[0] /* x1 */, small /* a */, big[1] /* x2 */, big[2] /* b */, big[3] /* b2 */} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			began := time.Now()
			if _, err := sched.SubmitTiles(engine, []*raster.RGB{tile}, time.Time{}); err != nil {
				t.Errorf("submit %dx%d: %v", tile.W, tile.H, err)
			}
			took[i] = time.Since(began)
		}()
		time.Sleep(20 * time.Millisecond)
	}
	wg.Wait()
	if b := took[3]; b >= stall/2 {
		t.Fatalf("the 32² request took %v: it waited for the %v forward pass of a 16² batch it could never join", b, stall)
	}
	t.Logf("32² request served in %v beside a %v stall", took[3], stall)
}
