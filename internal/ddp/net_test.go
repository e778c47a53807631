package ddp

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"seaice/internal/chaos"
	"seaice/internal/ring"
	"seaice/internal/tensor"
	"seaice/internal/transport"
	"seaice/internal/unet"
)

// modelBytes renders a model's parameters as raw bytes, matching
// weightsOf's rendering so network and in-process runs compare directly.
func modelBytes[S tensor.Scalar](m *unet.Model[S]) []byte {
	var buf bytes.Buffer
	var b [8]byte
	for _, p := range m.Params() {
		for _, v := range p.W.Data {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(float64(v)))
			buf.Write(b[:])
		}
	}
	return buf.Bytes()
}

// netHarness holds one in-test multi-process cluster: p loopback rings
// sharing a peer list, each with its own injector (as real processes
// would have).
type netHarness struct {
	peers []string
	lns   []net.Listener
}

func newNetHarness(t *testing.T, p int) *netHarness {
	t.Helper()
	h := &netHarness{peers: make([]string, p), lns: make([]net.Listener, p)}
	for r := 0; r < p; r++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		h.lns[r] = ln
		h.peers[r] = ln.Addr().String()
	}
	return h
}

// ring builds rank r's transport ring; spec seeds its private injector.
func (h *netHarness) ring(t *testing.T, r int, spec string) (*transport.Ring, *chaos.Injector) {
	t.Helper()
	var inj *chaos.Injector
	if spec != "" {
		sched, err := chaos.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		inj = chaos.New(sched, len(h.peers))
	}
	ln := h.lns[r]
	h.lns[r] = nil // consumed; a resume harness rebinds
	tr, err := transport.NewRing(transport.Config{
		Rank:      r,
		Peers:     h.peers,
		ClusterID: t.Name(),
		Timeout:   time.Second,
		Listener:  ln,
		Chaos:     inj,
		Logf:      t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr, inj
}

// runNetRanks trains every rank concurrently over TCP and returns each
// rank's (result, error, final weight bytes).
func runNetRanks[S tensor.Scalar](t *testing.T, h *netHarness, modelCfg unet.Config,
	mkCfg func(rank int, inj *chaos.Injector) Config, spec string) ([]*Result, []error, [][]byte) {
	t.Helper()
	p := len(h.peers)
	samples := syntheticSamples(4, 24, 8)
	results := make([]*Result, p)
	errs := make([]error, p)
	weights := make([][]byte, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		ringR, inj := h.ring(t, r, spec)
		coll := &transport.Collective[S]{R: ringR}
		cfg := mkCfg(r, inj)
		tr, err := NewNet[S](modelCfg, cfg, coll)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(r int, tr *Trainer[S], coll *transport.Collective[S]) {
			defer wg.Done()
			defer coll.Close()
			if cfg.SnapshotPath != "" {
				if snap, err := LoadSnapshotFile(cfg.SnapshotPath); err == nil {
					if err := tr.Restore(snap); err != nil {
						errs[r] = err
						return
					}
				}
			}
			results[r], errs[r] = tr.Fit(samples)
			weights[r] = modelBytes(tr.Replica(r))
		}(r, tr, coll)
	}
	wg.Wait()
	return results, errs, weights
}

// goldenWeights runs the never-failed in-process trainer at the same
// worker count and returns its rank-0 weight bytes.
func goldenWeights[S tensor.Scalar](t *testing.T, modelCfg unet.Config, workers int, master bool) []byte {
	t.Helper()
	samples := syntheticSamples(4, 24, 8)
	cfg := chaosTrainCfg(workers, "", t)
	cfg.MasterWeights = master
	tr, err := New[S](modelCfg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Fit(samples); err != nil {
		t.Fatal(err)
	}
	return weightsOf(tr)
}

// netFaultSpec injects one of every network fault kind across the run's
// 12 steps: a partition, a dropped frame, a slow link, a clean reconnect.
const netFaultSpec = "31:part@2:r1,drop@5:r0,slow@7:r2:10ms,reconn@9:r1"

// TestNetTrainBitIdentity is the tentpole invariant end-to-end: a
// 3-rank TCP training run with injected network partitions, dropped
// frames, slow links, and reconnects finishes with weights
// byte-identical to the never-failed single-process 3-worker run — for
// float64 and for float32 with float64 master weights.
func TestNetTrainBitIdentity(t *testing.T) {
	t.Run("float64", func(t *testing.T) { testNetBitIdentity[float64](t, false) })
	t.Run("float32-mixed", func(t *testing.T) { testNetBitIdentity[float32](t, true) })
}

func testNetBitIdentity[S tensor.Scalar](t *testing.T, master bool) {
	t.Helper()
	const p = 3
	modelCfg := dropoutConfig(11)
	want := goldenWeights[S](t, modelCfg, p, master)

	h := newNetHarness(t, p)
	results, errs, weights := runNetRanks[S](t, h, modelCfg, func(rank int, inj *chaos.Injector) Config {
		cfg := chaosTrainCfg(p, "", t)
		cfg.MasterWeights = master
		cfg.Chaos = inj
		return cfg
	}, netFaultSpec)
	recoveries := 0
	for r := 0; r < p; r++ {
		if errs[r] != nil {
			t.Fatalf("rank %d: %v", r, errs[r])
		}
		if !bytes.Equal(weights[r], want) {
			t.Errorf("rank %d weights diverge from the never-failed single-process run", r)
		}
		if results[r].Steps != 12 {
			t.Errorf("rank %d committed %d steps, want 12", r, results[r].Steps)
		}
		recoveries += results[r].Recoveries
	}
	if recoveries == 0 {
		t.Error("no recoveries recorded — the injected faults did not exercise the recovery path")
	}
}

// TestNetTrainLocalCollective runs the NetTrainer over the in-process
// Local collective (no sockets): the transports must be interchangeable
// behind ring.Collective, and the result must still match the
// single-process trainer bit for bit.
func TestNetTrainLocalCollective(t *testing.T) {
	const p = 3
	modelCfg := dropoutConfig(11)
	want := goldenWeights[float64](t, modelCfg, p, false)
	samples := syntheticSamples(4, 24, 8)

	colls, err := ring.NewLocal[float64](p)
	if err != nil {
		t.Fatal(err)
	}
	weights := make([][]byte, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		tr, err := NewNet[float64](modelCfg, chaosTrainCfg(p, "", t), colls[r])
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(r int, tr *Trainer[float64]) {
			defer wg.Done()
			_, errs[r] = tr.Fit(samples)
			weights[r] = modelBytes(tr.Replica(r))
		}(r, tr)
	}
	wg.Wait()
	for r := 0; r < p; r++ {
		if errs[r] != nil {
			t.Fatalf("rank %d: %v", r, errs[r])
		}
		if !bytes.Equal(weights[r], want) {
			t.Errorf("rank %d (local collective) diverges from single-process run", r)
		}
	}
}

// TestNetTrainKillResume kills the whole 3-rank cluster at a step
// boundary, restarts every rank from its rank-local snapshot file on
// fresh connections, injects a partition after the resume, and asserts
// the final weights still match the never-failed run — the
// cross-machine snapshot/resume path.
func TestNetTrainKillResume(t *testing.T) {
	const p = 3
	modelCfg := dropoutConfig(11)
	want := goldenWeights[float64](t, modelCfg, p, false)
	dir := t.TempDir()
	snapPath := func(r int) string { return filepath.Join(dir, fmt.Sprintf("snap.rank%d", r)) }
	mkCfg := func(rank int, inj *chaos.Injector) Config {
		cfg := chaosTrainCfg(p, "", t)
		cfg.Chaos = inj
		cfg.SnapshotPath = snapPath(rank)
		return cfg
	}

	// Phase 1: every rank dies at step 6 (snapshots land at 0 and 4).
	h := newNetHarness(t, p)
	_, errs, _ := runNetRanks[float64](t, h, modelCfg, mkCfg, "37:kill@6")
	for r, err := range errs {
		if !errors.Is(err, ErrKilled) {
			t.Fatalf("rank %d: got %v, want ErrKilled", r, err)
		}
	}

	// Phase 2: restart on fresh ports, resume from the rank-local
	// snapshots, and survive one more partition on the way to the end.
	h2 := newNetHarness(t, p)
	results, errs, weights := runNetRanks[float64](t, h2, modelCfg, mkCfg, "41:part@9:r2")
	for r := 0; r < p; r++ {
		if errs[r] != nil {
			t.Fatalf("resumed rank %d: %v", r, errs[r])
		}
		if !bytes.Equal(weights[r], want) {
			t.Errorf("resumed rank %d diverges from the never-failed run", r)
		}
		if results[r].Steps != 8 {
			t.Errorf("resumed rank %d committed %d steps, want 8 (12 total − 4 snapshotted)", r, results[r].Steps)
		}
	}
}

// TestNetRejectsInProcessOnly: healing a crashed replica and elastic
// resharding need every rank in one process, so a one-rank trainer
// refuses a Config that schedules either instead of silently never
// delivering the fault.
func TestNetRejectsInProcessOnly(t *testing.T) {
	colls, err := ring.NewLocal[float64](2)
	if err != nil {
		t.Fatal(err)
	}
	elastic := chaosTrainCfg(2, "", t)
	elastic.Elastic = true
	for name, cfg := range map[string]Config{
		"crash":   chaosTrainCfg(2, "3:crash@1:r1", t),
		"elastic": elastic,
	} {
		if _, err := NewNet[float64](dropoutConfig(1), cfg, colls[0]); !errors.Is(err, errors.ErrUnsupported) {
			t.Errorf("%s: NewNet = %v, want errors.ErrUnsupported", name, err)
		}
	}
}
