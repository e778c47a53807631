package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"seaice/internal/chaos"
	"seaice/internal/raster"
)

// TestCoordinatorConcurrentRerouteDuringNodeLoss kills a node while a
// burst of scene requests is in flight: the mark-down (breaker trip) and
// the reroutes race each other and every request must still come back
// 200 with bit-identical bytes, served by the survivor.
//
// The survivor absorbs the whole burst, so its last strips wait behind
// every client's work. The request timeout is therefore a multiple of
// one measured healthy round trip (plus a floor), as in
// TestCoordinatorHedgesSlowNode: under the race detector on a busy host
// a fixed timeout expired on the survivor too and marked it down.
func TestCoordinatorConcurrentRerouteDuringNodeLoss(t *testing.T) {
	const clients = 8
	cfg := DefaultConfig()
	cfg.TileSize = 32
	img := testSceneImg(t, 40, 128, 128)
	_, single := testServer(t, cfg)
	began := time.Now()
	postPNG(t, http.DefaultClient, single.URL+"/classify", img)
	healthy := time.Since(began)
	timeout := 4*clients*healthy + 5*time.Second
	t.Logf("healthy round trip %v: request timeout %v", healthy, timeout)

	_, tsA, addrA := workerNode(t, cfg)
	_, _, addrB := workerNode(t, cfg)
	coord, cts := serveCoordinator(t, CoordConfig{
		TileSize:    cfg.TileSize,
		Nodes:       []string{addrA, addrB},
		Build:       cfg.Build,
		HealthEvery: time.Hour,
		Timeout:     timeout,
		Logf:        t.Logf,
	})

	var buf bytes.Buffer
	if err := img.EncodePNG(&buf); err != nil {
		t.Fatal(err)
	}
	body := buf.Bytes()

	resp, want := postPNG(t, http.DefaultClient, cts.URL+"/classify", img)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("baseline status %d: %s", resp.StatusCode, want)
	}

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

// TestCoordinatorBoundsEndlessReply points the coordinator at a node that
// answers 200 and then streams label bytes without end: the coordinator
// must read no more than one strip's reply plus a byte, treat the length
// as a node failure, and reroute to the healthy node — well inside its
// request timeout, with bytes equal to a healthy server's. The stream
// stops at streamCap only so that a coordinator without the bound cannot
// exhaust the test host's memory; one that read to the end would have
// taken all of it.
func TestCoordinatorBoundsEndlessReply(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TileSize = 32
	img := testSceneImg(t, 45, 128, 128)
	_, single := testServer(t, cfg)
	_, want := postPNG(t, http.DefaultClient, single.URL+"/classify", img)

	const streamCap = 64 << 20
	var sent atomic.Int64
	endless := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/classify" {
			return // health probes see a 200
		}
		io.Copy(io.Discard, r.Body)
		chunk := make([]byte, 64<<10) // class 0: valid label bytes
		for sent.Load() < streamCap {
			n, err := w.Write(chunk)
			sent.Add(int64(n))
			if err != nil {
				return
			}
		}
	}))
	t.Cleanup(endless.Close)
	_, _, addrGood := workerNode(t, cfg)

	const timeout = time.Minute
	coord, cts := serveCoordinator(t, CoordConfig{
		TileSize:    cfg.TileSize,
		Nodes:       []string{strings.TrimPrefix(endless.URL, "http://"), addrGood},
		Build:       cfg.Build,
		HealthEvery: time.Hour,
		Timeout:     timeout,
		HedgeAfter:  -1,
		Logf:        t.Logf,
	})

	began := time.Now()
	resp, got := postPNG(t, http.DefaultClient, cts.URL+"/classify", img)
	elapsed := time.Since(began)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("rerouted answer differs from the healthy server's")
	}
	if elapsed > timeout/4 {
		t.Fatalf("request took %v against a %v request timeout", elapsed, timeout)
	}
	if s := coord.Stats(); s.Rerouted == 0 {
		t.Fatalf("no tiles rerouted off the endless node: %+v", s)
	}
	if n := sent.Load(); n >= streamCap/4 {
		t.Fatalf("endless node sent %d bytes before the coordinator hung up", n)
	}
	t.Logf("endless node sent %d bytes; request took %v", sent.Load(), elapsed)
}

// TestCoordinatorProbeFailsHungHealthz points the coordinator at a node
// whose /healthz sends a 200 header and then stalls its body: the probe
// must count the unfinished read as a failure, not trust the status
// line, and the health loop must open the node's breaker.
func TestCoordinatorProbeFailsHungHealthz(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TileSize = 32
	release := make(chan struct{})
	hung := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		w.(http.Flusher).Flush()
		select {
		case <-r.Context().Done():
		case <-release:
		}
	}))
	t.Cleanup(hung.Close)
	t.Cleanup(func() { close(release) })
	nodes := []string{strings.TrimPrefix(hung.URL, "http://")}

	coord, _ := serveCoordinator(t, CoordConfig{
		TileSize:     cfg.TileSize,
		Nodes:        nodes,
		Build:        cfg.Build,
		HealthEvery:  time.Hour,
		ProbeTimeout: 100 * time.Millisecond,
		Logf:         t.Logf,
	})
	began := time.Now()
	if coord.probe(0) {
		t.Fatalf("probe of a node whose /healthz body hangs reported healthy after %v", time.Since(began))
	}

	looped, _ := serveCoordinator(t, CoordConfig{
		TileSize:    cfg.TileSize,
		Nodes:       nodes,
		Build:       cfg.Build,
		HealthEvery: 20 * time.Millisecond,
		Logf:        t.Logf,
	})
	for deadline := time.Now().Add(5 * time.Second); looped.breakers[0].State() == BreakerClosed; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("health loop kept a node with a hung /healthz in rotation")
		}
	}
}

// TestCoordinatorCloseLeaksNothing: a coordinator that served scenes
// holds keep-alive connections to its nodes; Close must release them,
// with the nodes still running, so no transport or node connection
// goroutine outlives it.
func TestCoordinatorCloseLeaksNothing(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TileSize = 32
	_, _, addrA := workerNode(t, cfg)
	_, _, addrB := workerNode(t, cfg)
	body := encodePNG(t, testSceneImg(t, 47, 128, 128))

	leaked := goroutineBaseline(t)
	coord, err := NewCoordinator(CoordConfig{
		TileSize:    cfg.TileSize,
		Nodes:       []string{addrA, addrB},
		Build:       cfg.Build,
		HealthEvery: time.Hour,
		Timeout:     5 * time.Second,
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		rec := httptest.NewRecorder()
		coord.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/classify", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, rec.Code, rec.Body.Bytes())
		}
	}
	coord.Close()
	leaked()
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

	coord, cts := serveCoordinator(t, CoordConfig{
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
	_, err := sched.SubmitTiles(m, []*raster.RGB{tile}, time.Now().Add(50*time.Millisecond))
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
	if _, err := sched.SubmitTiles(m, []*raster.RGB{tile}, time.Now().Add(30*time.Second)); err != nil {
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
		if _, err := s.SubmitTiles(m, tiles[:1], time.Time{}); err != nil {
			t.Errorf("head-of-line request failed: %v", err)
		}
	}()
	time.Sleep(20 * time.Millisecond)
	// 50ms budget, behind a 200ms batch with no model observations yet:
	// admitted optimistically, then dropped expired at pickup.
	_, err2 := s.SubmitTiles(m, tiles[1:2], time.Now().Add(50*time.Millisecond))
	wg.Wait()
	if !errors.Is(err2, ErrDeadlineExpired) {
		t.Fatalf("err %v, want ErrDeadlineExpired", err2)
	}
	if snap := stats.Snapshot(0, 0, 0, 0); snap.ExpiredDropped != 1 {
		t.Fatalf("ExpiredDropped %d, want 1", snap.ExpiredDropped)
	}
}
