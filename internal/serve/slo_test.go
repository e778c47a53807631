package serve

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// TestSLORegression is the chaos-under-load SLO gate: it re-measures the
// deterministic benchmark behind BENCH_serve.json and holds every point
// to the committed bounds — p99 within SLO under burst + slownode +
// worker-kill faults, no feasible-at-admission request 429'd after the
// fact, and no expired request ever dispatched into a forward pass. It
// also cross-checks the committed artifact so a code change that shifts
// the curves must regenerate the file (seaice-serve -slo) in the same
// commit.
func TestSLORegression(t *testing.T) {
	bench, err := RunSLOBench()
	if err != nil {
		t.Fatal(err)
	}
	slo := bench.SLO
	check := func(label string, points []LoadPoint) {
		for _, p := range points {
			if p.AdmittedThenRejected != 0 {
				t.Errorf("%s @%g rps: %d admitted requests later rejected (must be 0)",
					label, p.OfferedRPS, p.AdmittedThenRejected)
			}
			if p.ExpiredComputed != 0 {
				t.Errorf("%s @%g rps: %d expired requests reached compute (must be 0)",
					label, p.OfferedRPS, p.ExpiredComputed)
			}
			if p.P99MS > slo.P99BoundMS {
				t.Errorf("%s @%g rps: p99 %.1fms exceeds SLO bound %.1fms",
					label, p.OfferedRPS, p.P99MS, slo.P99BoundMS)
			}
			if got := p.Admitted; got != p.Completed+p.ExpiredDropped {
				t.Errorf("%s @%g rps: admitted %d != completed %d + expired %d (requests lost)",
					label, p.OfferedRPS, got, p.Completed, p.ExpiredDropped)
			}
		}
	}
	check("baseline", bench.Baseline)
	check("faulted", bench.Faulted)

	// Below the capacity knee a healthy cluster must serve nearly
	// everything (the faulted sweep is exempt: its burst windows exceed
	// the knee by design and shedding them is the behavior under test).
	for _, p := range bench.Baseline {
		if p.OfferedRPS > slo.CapacityRPS {
			continue
		}
		errs := p.RejectedOverload + p.RejectedInfeasible + p.ExpiredDropped
		if rate := float64(errs) / float64(p.Arrived); rate > slo.MaxErrorRate {
			t.Errorf("baseline @%g rps: error rate %.3f exceeds %.3f below capacity",
				p.OfferedRPS, rate, slo.MaxErrorRate)
		}
	}

	// The faulted sweep must actually have delivered its faults —
	// an SLO held against a chaos schedule that never fired proves
	// nothing.
	for _, p := range bench.Faulted {
		if p.FaultsDelivered != 3 {
			t.Errorf("faulted @%g rps: %d of 3 faults delivered", p.OfferedRPS, p.FaultsDelivered)
		}
	}

	// Cross-check the committed artifact point by point.
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCH_serve.json"))
	if err != nil {
		t.Fatalf("read committed benchmark (regenerate with seaice-serve -slo): %v", err)
	}
	var committed SLOBench
	if err := json.Unmarshal(data, &committed); err != nil {
		t.Fatalf("parse BENCH_serve.json: %v", err)
	}
	comparePoints := func(label string, got, want []LoadPoint) {
		if len(got) != len(want) {
			t.Fatalf("%s: measured %d points, committed %d (regenerate with seaice-serve -slo)",
				label, len(got), len(want))
		}
		for i := range got {
			g, w := got[i], want[i]
			if g.Admitted != w.Admitted || g.Completed != w.Completed ||
				g.RejectedOverload != w.RejectedOverload ||
				g.RejectedInfeasible != w.RejectedInfeasible ||
				g.ExpiredDropped != w.ExpiredDropped ||
				math.Abs(g.P99MS-w.P99MS) > 1e-6 {
				t.Errorf("%s @%g rps drifted from BENCH_serve.json (regenerate with seaice-serve -slo):\n got %+v\nwant %+v",
					label, g.OfferedRPS, g, w)
			}
		}
	}
	comparePoints("baseline", bench.Baseline, committed.Baseline)
	comparePoints("faulted", bench.Faulted, committed.Faulted)
	if committed.SLO != slo {
		t.Errorf("committed SLO bounds %+v differ from code %+v", committed.SLO, slo)
	}
}

// TestSLOLoadSimDeterminism: equal seeds reproduce a run bit-for-bit;
// the committed benchmark depends on it.
func TestSLOLoadSimDeterminism(t *testing.T) {
	run := func() []LoadPoint {
		pts, err := LoadSweep(sloConfig(), []float64{800}, sloFaultSpec)
		if err != nil {
			t.Fatal(err)
		}
		return pts
	}
	a, b := run(), run()
	if a[0] != b[0] {
		t.Fatalf("same seed, different runs:\n a %+v\n b %+v", a[0], b[0])
	}
}

// TestSLOLoadSimShedsUnderOverload: past capacity the simulator must
// reject rather than let latency run away — the knee behavior the
// admission controller exists for.
func TestSLOLoadSimShedsUnderOverload(t *testing.T) {
	cfg := sloConfig()
	pts, err := LoadSweep(cfg, []float64{5000}, "")
	if err != nil {
		t.Fatal(err)
	}
	p := pts[0]
	if p.RejectedOverload+p.RejectedInfeasible == 0 {
		t.Fatalf("5000 rps against ~1.8k capacity produced zero rejections: %+v", p)
	}
	if p.P99MS > 1000*cfg.Deadline+50 {
		t.Fatalf("completed-request p99 %.1fms ran away past the %.0fms deadline", p.P99MS, 1000*cfg.Deadline)
	}
}

// TestSLOLoadSimBurstFault: a burst fault must raise arrivals inside its
// window relative to the same run without it.
func TestSLOLoadSimBurstFault(t *testing.T) {
	cfg := sloConfig()
	quiet, err := LoadSweep(cfg, []float64{400}, "")
	if err != nil {
		t.Fatal(err)
	}
	bursty, err := LoadSweep(cfg, []float64{400}, "7:burst@10:3s")
	if err != nil {
		t.Fatal(err)
	}
	if bursty[0].FaultsDelivered != 1 {
		t.Fatalf("burst fault not delivered: %+v", bursty[0])
	}
	if bursty[0].Arrived <= quiet[0].Arrived {
		t.Fatalf("burst did not raise arrivals: %d (burst) vs %d (quiet)",
			bursty[0].Arrived, quiet[0].Arrived)
	}
}

// TestSLOLoadSimSlowNodeFault: degrading one node must raise the tail
// without stalling the healthy node — p99 grows, work still completes.
func TestSLOLoadSimSlowNodeFault(t *testing.T) {
	cfg := sloConfig()
	cfg.Deadline = 0 // isolate the latency effect from deadline shedding
	healthy, err := LoadSweep(cfg, []float64{400}, "")
	if err != nil {
		t.Fatal(err)
	}
	sick, err := LoadSweep(cfg, []float64{400}, "3:slownode@0:r1:40ms")
	if err != nil {
		t.Fatal(err)
	}
	if sick[0].FaultsDelivered != 1 {
		t.Fatalf("slownode fault not delivered: %+v", sick[0])
	}
	if sick[0].P99MS <= healthy[0].P99MS {
		t.Fatalf("slownode did not raise p99: %.2fms (sick) vs %.2fms (healthy)",
			sick[0].P99MS, healthy[0].P99MS)
	}
	if sick[0].Completed == 0 {
		t.Fatal("slownode run completed nothing")
	}
}

// TestSLOLoadSimRejectsUnsizedQueue: the simulator has no defaults of
// its own — the queue's sizes come from the caller, as serve.Config's do
// — so a zero Nodes / Workers / MaxBatch / QueueSize or a non-positive
// rate is an error, not a silent 1 / 8 / 64.
func TestSLOLoadSimRejectsUnsizedQueue(t *testing.T) {
	if _, err := NewLoadSim(sloConfig(), 100, nil); err != nil {
		t.Fatalf("the committed configuration was rejected: %v", err)
	}
	for name, unset := range map[string]func(*LoadSimConfig){
		"nodes":      func(c *LoadSimConfig) { c.Nodes = 0 },
		"workers":    func(c *LoadSimConfig) { c.Workers = 0 },
		"max batch":  func(c *LoadSimConfig) { c.MaxBatch = 0 },
		"queue size": func(c *LoadSimConfig) { c.QueueSize = 0 },
	} {
		cfg := sloConfig()
		unset(&cfg)
		if _, err := NewLoadSim(cfg, 100, nil); err == nil {
			t.Errorf("NewLoadSim accepted a configuration without %s", name)
		}
		if _, err := LoadSweep(cfg, []float64{100}, ""); err == nil {
			t.Errorf("LoadSweep accepted a configuration without %s", name)
		}
	}
	if _, err := NewLoadSim(sloConfig(), 0, nil); err == nil {
		t.Error("NewLoadSim accepted a zero offered load")
	}
}
