package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"seaice/internal/chaos"
)

// TestCoordinatorConcurrentRerouteDuringNodeLoss kills a node while a
// burst of scene requests is in flight: the mark-down (breaker trip) and
// the reroutes race each other and every request must still come back
// 200 with bit-identical bytes, served by the survivor.
func TestCoordinatorConcurrentRerouteDuringNodeLoss(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TileSize = 32
	_, tsA, addrA := workerNode(t, cfg)
	_, _, addrB := workerNode(t, cfg)
	coord, cts := testCoordinator(t, cfg, []string{addrA, addrB})

	img := testSceneImg(t, 40, 128, 128)
	var buf bytes.Buffer
	if err := img.EncodePNG(&buf); err != nil {
		t.Fatal(err)
	}
	body := buf.Bytes()

	resp, want := postPNG(t, http.DefaultClient, cts.URL+"/classify", img)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("baseline status %d: %s", resp.StatusCode, want)
	}

	const clients = 8
	type result struct {
		status int
		body   []byte
		err    error
	}
	results := make([]result, clients)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			resp, err := http.Post(cts.URL+"/classify", "image/png", bytes.NewReader(body))
			if err != nil {
				results[i] = result{err: err}
				return
			}
			defer resp.Body.Close()
			b, err := io.ReadAll(resp.Body)
			results[i] = result{status: resp.StatusCode, body: b, err: err}
		}(i)
	}
	close(start)
	time.Sleep(2 * time.Millisecond)
	tsA.Close() // node 0 dies mid-burst
	wg.Wait()

	for i, r := range results {
		if r.err != nil {
			t.Fatalf("request %d: %v", i, r.err)
		}
		if r.status != http.StatusOK {
			t.Fatalf("request %d: status %d (%s)", i, r.status, r.body)
		}
		if !bytes.Equal(r.body, want) {
			t.Fatalf("request %d: bytes diverged from baseline under reroute race", i)
		}
	}
	s := coord.Stats()
	if len(s.NodesDown) != 1 || s.NodesDown[0] != 0 {
		t.Fatalf("node 0 should be marked down: %+v", s)
	}
	if s.Rerouted == 0 {
		t.Fatal("no tiles recorded as rerouted")
	}
}

// TestCoordinatorStaleFallbackPartial: with every node dead, tiles the
// coordinator has served before come back stale from its fallback cache
// as a 200 marked X-Seaice-Partial — degraded, not dark.
func TestCoordinatorStaleFallbackPartial(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TileSize = 32
	_, tsA, addrA := workerNode(t, cfg)
	coord, cts := testCoordinator(t, cfg, []string{addrA})

	img := testSceneImg(t, 41, 128, 128)
	resp, want := postPNG(t, http.DefaultClient, cts.URL+"/classify", img)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("baseline status %d", resp.StatusCode)
	}

	tsA.Close() // the only node dies

	resp, got := postPNG(t, http.DefaultClient, cts.URL+"/classify", img)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded status %d (%s), want 200 from fallback cache", resp.StatusCode, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("stale-served bytes differ from the live answer")
	}
	ph := resp.Header.Get(PartialHeader)
	if ph == "" {
		t.Fatalf("degraded 200 missing %s header", PartialHeader)
	}
	var partial struct {
		Missing int `json:"missing"`
		Stale   int `json:"stale"`
		Total   int `json:"total"`
	}
	if err := json.Unmarshal([]byte(ph), &partial); err != nil {
		t.Fatalf("%s is not JSON: %v (%s)", PartialHeader, err, ph)
	}
	if partial.Missing != 0 || partial.Stale != partial.Total || partial.Total == 0 {
		t.Fatalf("unexpected partial marker: %+v", partial)
	}
	s := coord.Stats()
	if s.PartialResponses != 1 || s.StaleTiles != partial.Stale {
		t.Fatalf("stats disagree with partial response: %+v", s)
	}

	// A scene of unseen tiles has no fallback: that is the real 503.
	cold := testSceneImg(t, 42, 64, 64)
	resp, body := postPNG(t, http.DefaultClient, cts.URL+"/classify", cold)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("cold degraded status %d (%s), want 503", resp.StatusCode, body)
	}
}

// TestCoordinatorHedgesSlowNode degrades one worker with a slownode
// chaos fault and sets a fixed hedge delay: strips owned by the sick
// node must be hedged to the healthy node, the hedge must win, and the
// answer must stay bit-identical.
//
// Every delay is a multiple of one measured healthy round trip (the
// golden request: filter + all 16 tiles on a cold server), so the test
// does not depend on host speed — under the race detector a forward
// pass outlasts any constant that is reasonable on a fast host. The
// hedge fires after one such trip, by when the healthy node has
// finished its own strip (about half the scene, no filter); the sick
// node sleeps 8× before every batch, so the hedged copy has a 7×
// head start over the sick primary.
func TestCoordinatorHedgesSlowNode(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TileSize = 32

	// Golden through a healthy standalone server, timed.
	img := testSceneImg(t, 43, 128, 128)
	_, single := testServer(t, cfg)
	began := time.Now()
	_, want := postPNG(t, http.DefaultClient, single.URL+"/classify", img)
	healthy := time.Since(began)
	hedgeAfter, slow := healthy, 8*healthy
	t.Logf("healthy round trip %v: hedging after %v, slow node +%v per batch", healthy, hedgeAfter, slow)

	slowCfg := cfg
	sched, err := chaos.Parse("1:slownode@0:" + slow.String())
	if err != nil {
		t.Fatal(err)
	}
	slowCfg.Chaos = chaos.New(sched, 1)
	_, _, addrSlow := workerNode(t, slowCfg)
	_, _, addrFast := workerNode(t, cfg)

	coord, err := NewCoordinator(CoordConfig{
		TileSize:    cfg.TileSize,
		Nodes:       []string{addrSlow, addrFast},
		Build:       cfg.Build,
		HealthEvery: time.Hour,
		// A primary must never time out before its hedge can win: a
		// timeout is a breaker verdict, a cancelled loser is not.
		Timeout:    3*slow + 5*time.Second,
		HedgeAfter: hedgeAfter,
		Logf:       t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	cts := httptest.NewServer(coord.Handler())
	t.Cleanup(func() {
		cts.Close()
		coord.Close()
	})

	resp, got := postPNG(t, http.DefaultClient, cts.URL+"/classify", img)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("hedged answer differs from the healthy golden")
	}
	s := coord.Stats()
	if s.Hedged == 0 {
		t.Fatalf("no strips hedged despite a %v-slow node: %+v", slow, s)
	}
	if s.HedgeWins == 0 {
		t.Fatalf("hedge to the fast node never won: %+v", s)
	}
	// The slow node answered late but alive — cancellation is not a
	// health verdict, so its breaker must not have tripped.
	if len(s.NodesDown) != 0 {
		t.Fatalf("hedging wrongly marked a node down: %+v", s)
	}
}

// TestServerDeadlineHeader400: malformed or non-positive budgets are
// client errors, not silent no-deadline requests.
func TestServerDeadlineHeader400(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TileSize = 16
	_, ts := testServer(t, cfg)
	img := testSceneImg(t, 44, 32, 32)
	var buf bytes.Buffer
	if err := img.EncodePNG(&buf); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"abc", "-5", "0"} {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/classify", bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "image/png")
		req.Header.Set(DeadlineHeader, bad)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s=%q: status %d, want 400", DeadlineHeader, bad, resp.StatusCode)
		}
	}
	// A generous budget sails through.
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/classify", bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "image/png")
	req.Header.Set(DeadlineHeader, "60000")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("generous deadline: status %d, want 200", resp.StatusCode)
	}
}

// TestSchedulerInfeasibleDeadline: once the model has observed service
// times, a deadline the prediction cannot meet is refused at enqueue
// with a model-derived retry hint — not accepted and timed out later.
func TestSchedulerInfeasibleDeadline(t *testing.T) {
	m := testModel(t, 2)
	cfg := schedCfg()
	cfg.MaxBatch = 1
	stats := NewStats()
	sched := NewScheduler(cfg, stats)
	defer sched.Close()

	// Teach the model that a batch takes 500ms.
	sched.Model().Observe(1, 500*time.Millisecond)

	tile := testTiles(1, 16, 5)[0]
	_, err := sched.SubmitDeadline(m, tile, time.Now().Add(50*time.Millisecond))
	var infeasible *InfeasibleError
	if !errors.As(err, &infeasible) {
		t.Fatalf("err %v, want InfeasibleError", err)
	}
	if infeasible.RetryAfter <= 0 {
		t.Fatalf("non-positive RetryAfter: %+v", infeasible)
	}
	if infeasible.Predicted < infeasible.Budget {
		t.Fatalf("rejected although predicted %v < budget %v", infeasible.Predicted, infeasible.Budget)
	}
	if snap := stats.Snapshot(0, 0, 0, 0); snap.DeadlineRejected != 1 {
		t.Fatalf("DeadlineRejected %d, want 1", snap.DeadlineRejected)
	}

	// The same request with a feasible budget is served.
	if _, err := sched.SubmitDeadline(m, tile, time.Now().Add(30*time.Second)); err != nil {
		t.Fatalf("feasible deadline rejected: %v", err)
	}
}

// TestSchedulerExpiredDroppedBeforeCompute: a request whose deadline
// passes while queued behind a slow batch is answered 504-style at
// pickup — the forward pass never runs for it.
func TestSchedulerExpiredDroppedBeforeCompute(t *testing.T) {
	m := testModel(t, 2)
	cfg := schedCfg()
	cfg.MaxBatch = 1
	sched, err := chaos.Parse("1:slownode@0:200ms")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Chaos = chaos.New(sched, 1)
	stats := NewStats()
	s := NewScheduler(cfg, stats)
	defer s.Close()

	tiles := testTiles(2, 16, 6)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Occupies the single worker for ≥200ms (injected slow batch).
		if _, err := s.Submit(m, tiles[0]); err != nil {
			t.Errorf("head-of-line request failed: %v", err)
		}
	}()
	time.Sleep(20 * time.Millisecond)
	// 50ms budget, behind a 200ms batch with no model observations yet:
	// admitted optimistically, then dropped expired at pickup.
	_, err2 := s.SubmitDeadline(m, tiles[1], time.Now().Add(50*time.Millisecond))
	wg.Wait()
	if !errors.Is(err2, ErrDeadlineExpired) {
		t.Fatalf("err %v, want ErrDeadlineExpired", err2)
	}
	if snap := stats.Snapshot(0, 0, 0, 0); snap.ExpiredDropped != 1 {
		t.Fatalf("ExpiredDropped %d, want 1", snap.ExpiredDropped)
	}
}
