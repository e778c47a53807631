package serve

import "fmt"

// SLOBounds are the committed service-level objectives the regression
// test holds every faulted run to.
type SLOBounds struct {
	// P99BoundMS caps the p99 latency of completed requests at every
	// measured load point, faults included.
	P99BoundMS float64 `json:"p99_bound_ms"`
	// MaxErrorRate caps (overload 429s + infeasible 429s + expired
	// 504s) / arrivals on baseline points offered at most CapacityRPS:
	// below the knee, a healthy cluster must serve nearly everything.
	// Faulted sweeps are exempt — a 4× burst pushes even sub-capacity
	// points past the knee, and shedding that load as 429s while p99
	// stays bounded IS the design under test, not an error.
	MaxErrorRate float64 `json:"max_error_rate"`
	// CapacityRPS is the knee used by MaxErrorRate.
	CapacityRPS float64 `json:"capacity_rps"`
}

// SLOBench is the full benchmark artifact committed as BENCH_serve.json:
// the simulated cluster's latency-versus-offered-load curve with and
// without injected faults, plus the SLO bounds the regression test
// enforces. Every number is deterministic (seeded arrivals over a
// virtual clock), so the committed file is bit-reproducible.
type SLOBench struct {
	Schema    string        `json:"schema"`
	Workload  string        `json:"workload"`
	Config    LoadSimConfig `json:"config"`
	Rates     []float64     `json:"rates_rps"`
	FaultSpec string        `json:"fault_spec"`
	Baseline  []LoadPoint   `json:"baseline"`
	Faulted   []LoadPoint   `json:"faulted"`
	SLO       SLOBounds     `json:"slo"`
}

// sloFaultSpec is the chaos schedule the faulted sweep runs under: a 4×
// traffic burst at t=2s for 2s, node 1 degraded (+30ms per batch) from
// t=4s, and a worker killed mid-batch at t=6s — the ISSUE's
// burst + slownode + worker-kill trio.
const sloFaultSpec = "7:burst@20:2s,slownode@40:r1:30ms,serve@60"

// sloConfig is the simulated cluster the committed curves are measured
// on: 2 nodes × 2 workers × batch 8 at 2ms/tile ≈ 1.8k requests/s of
// healthy capacity, 250ms client deadlines.
func sloConfig() LoadSimConfig {
	return LoadSimConfig{
		Nodes:         2,
		Workers:       2,
		MaxBatch:      8,
		QueueSize:     64,
		TileTime:      0.002,
		BatchOverhead: 0.001,
		Deadline:      0.25,
		Duration:      10,
		Seed:          42,
	}
}

// sloRates sweeps from comfortable load to ~1.3× capacity.
func sloRates() []float64 { return []float64{200, 400, 800, 1600, 2400} }

// sloBounds are the committed objectives; see SLOBounds.
func sloBounds() SLOBounds {
	return SLOBounds{P99BoundMS: 250, MaxErrorRate: 0.02, CapacityRPS: 1600}
}

// RunSLOBench measures both sweeps and returns the artifact. The same
// function backs `seaice-serve -slo` (which writes BENCH_serve.json) and
// the SLO regression test (which re-measures and compares against the
// committed file).
func RunSLOBench() (*SLOBench, error) {
	cfg := sloConfig()
	rates := sloRates()
	baseline, err := LoadSweep(cfg, rates, "")
	if err != nil {
		return nil, fmt.Errorf("serve: baseline sweep: %w", err)
	}
	faulted, err := LoadSweep(cfg, rates, sloFaultSpec)
	if err != nil {
		return nil, fmt.Errorf("serve: faulted sweep: %w", err)
	}
	return &SLOBench{
		Schema: "seaice-bench-serve/v3",
		Workload: "chaos-under-load SLO sweep on the simtime cluster model; " +
			"regenerate with `go run ./cmd/seaice-serve -slo` " +
			"(bit-reproducible — no host section needed)",
		Config:    cfg,
		Rates:     rates,
		FaultSpec: sloFaultSpec,
		Baseline:  baseline,
		Faulted:   faulted,
		SLO:       sloBounds(),
	}, nil
}
