package perfmodel

import (
	"math"
	"testing"
)

// within reports |got-want| <= tol·want.
func within(got, want, tol float64) bool {
	return math.Abs(got-want) <= tol*math.Abs(want)
}

// TestWorkstationReproducesTable1: the SMT model must land within 3% of
// every published Table I speedup.
func TestWorkstationReproducesTable1(t *testing.T) {
	m := PaperWorkstation()
	paper := map[int]float64{1: 1.0, 2: 2.0, 4: 3.7, 6: 4.2, 8: 4.5}
	for n, want := range paper {
		got := m.Speedup(n)
		if !within(got, want, 0.03) {
			t.Errorf("speedup(%d) = %.3f, paper %.1f", n, got, want)
		}
	}
	// Time scales inversely with speedup.
	if !within(m.Time(17.40, 8), 17.40/m.Speedup(8), 1e-12) {
		t.Error("Time inconsistent with Speedup")
	}
}

func TestSMTMachineMonotone(t *testing.T) {
	m := PaperWorkstation()
	prev := 0.0
	for n := 1; n <= 16; n++ {
		s := m.Speedup(n)
		if s < prev {
			t.Fatalf("speedup not monotone at %d: %f < %f", n, s, prev)
		}
		prev = s
	}
	if m.EffectiveCores(0) != 0 {
		t.Fatal("zero processes must yield zero throughput")
	}
}

// TestLoadStageReproducesTable2: every Table II load cell within 10%.
func TestLoadStageReproducesTable2(t *testing.T) {
	s := PaperLoadStage()
	cells := []struct {
		e, c int
		want float64
	}{
		{1, 1, 108}, {1, 2, 58}, {1, 4, 33},
		{2, 1, 56}, {2, 2, 31}, {2, 4, 19},
		{4, 1, 31}, {4, 2, 17}, {4, 4, 12},
	}
	for _, cell := range cells {
		got := s.Time(cell.e, cell.c)
		if !within(got, cell.want, 0.10) {
			t.Errorf("load(%d,%d) = %.1f s, paper %.0f s", cell.e, cell.c, got, cell.want)
		}
	}
	if !within(s.Speedup(4, 4), 9.0, 0.06) {
		t.Errorf("load speedup(4,4) = %.2f, paper 9.0", s.Speedup(4, 4))
	}
}

// TestReduceStageReproducesTable2: every Table II reduce cell within 15%
// (the paper's middle cells carry cloud measurement noise).
func TestReduceStageReproducesTable2(t *testing.T) {
	s := PaperReduceStage()
	cells := []struct {
		e, c int
		want float64
	}{
		{1, 1, 390}, {1, 2, 174}, {1, 4, 72},
		{2, 1, 156}, {2, 2, 84}, {2, 4, 41},
		{4, 1, 78}, {4, 2, 39}, {4, 4, 24},
	}
	for _, cell := range cells {
		got := s.Time(cell.e, cell.c)
		if !within(got, cell.want, 0.15) {
			t.Errorf("reduce(%d,%d) = %.1f s, paper %.0f s", cell.e, cell.c, got, cell.want)
		}
	}
	if !within(s.Speedup(4, 4), 16.25, 0.1) {
		t.Errorf("reduce speedup(4,4) = %.2f, paper 16.25", s.Speedup(4, 4))
	}
}

// TestDGXReproducesTable3: per-epoch times within 4% and speedups within
// 3% of every Table III row.
func TestDGXReproducesTable3(t *testing.T) {
	h := PaperDGX()
	rows := []struct {
		p                 int
		perEpoch, speedup float64
	}{
		{1, 5.61, 1.00}, // paper rounds 280.72/50 to 5.5
		{2, 2.86, 1.96},
		{4, 1.48, 3.79},
		{6, 1.03, 5.44},
		{8, 0.78, 7.21},
	}
	for _, r := range rows {
		if !within(h.EpochTime(r.p), r.perEpoch, 0.04) {
			t.Errorf("epoch(%d) = %.3f s, want ≈%.2f s", r.p, h.EpochTime(r.p), r.perEpoch)
		}
		if !within(h.Speedup(r.p), r.speedup, 0.03) {
			t.Errorf("speedup(%d) = %.3f, paper %.2f", r.p, h.Speedup(r.p), r.speedup)
		}
	}
	// Throughput on 8 GPUs ≈ 4248 img/s for the 3379-tile training set.
	if !within(h.Throughput(8, 3379), 4248.56, 0.05) {
		t.Errorf("throughput(8) = %.1f img/s, paper 4248.56", h.Throughput(8, 3379))
	}
	// Total over 50 epochs ≈ 38.91 s.
	if !within(h.TotalTime(8, 50), 38.91, 0.05) {
		t.Errorf("total(8, 50 epochs) = %.2f s, paper 38.91", h.TotalTime(8, 50))
	}
}

func TestHorovodDegenerateInputs(t *testing.T) {
	h := PaperDGX()
	if h.EpochTime(0) != h.EpochTime(1) {
		t.Fatal("p=0 should clamp to 1")
	}
}

// TestMapTimeConstant: the lazy map's driver cost matches Table II's
// constant 0.2–0.4 s column.
func TestMapTimeConstant(t *testing.T) {
	if PaperMapTime < 0.2 || PaperMapTime > 0.4 {
		t.Fatalf("map time %.2f outside the paper's 0.2–0.4 s column", PaperMapTime)
	}
}
