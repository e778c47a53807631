package nn

import (
	"math"
	"testing"

	"seaice/internal/noise"
	"seaice/internal/tensor"
)

// randLogitsLabels builds a random (2,3,4,4) logit tensor and matching
// labels, the standard loss-test fixture.
func randLogitsLabels(seedLogits, seedLabels uint64) (*tensor.Tensor[float64], []uint8) {
	rng := noise.NewRNG(seedLogits, 1)
	logits := tensor.New[float64](2, 3, 4, 4)
	logits.FillRandn(rng, 1)
	labels := make([]uint8, 2*4*4)
	lr := noise.NewRNG(seedLabels, 1)
	for i := range labels {
		labels[i] = uint8(lr.Intn(3))
	}
	return logits, labels
}

// TestFocalCrossEntropyGrad validates the focal gradient against central
// finite differences across focusing exponents, including the γ<1 regime
// where the (1−p_t)^(γ−1) factor is most delicate, and with per-class α
// weights.
func TestFocalCrossEntropyGrad(t *testing.T) {
	logits, labels := randLogitsLabels(8, 9)
	for _, cfg := range []FocalParams{
		{Gamma: 0},
		{Gamma: 0.5},
		{Gamma: 1},
		{Gamma: 2},
		{Gamma: 2, Alpha: []float64{0.25, 1, 0.5}},
	} {
		f := NewFocal[float64](cfg)
		lossFn := func() float64 {
			l, err := f.Loss(logits, labels)
			if err != nil {
				t.Fatalf("γ=%g loss: %v", cfg.Gamma, err)
			}
			return l
		}
		lossFn()
		g := f.Grad()
		for i := 0; i < logits.Len(); i += 3 {
			want := numGrad(logits.Data, i, lossFn)
			got := g.Data[i]
			if math.Abs(got-want) > 1e-6*(1+math.Abs(want)) {
				t.Fatalf("γ=%g α=%v: focal grad [%d] = %.8g, finite diff %.8g", cfg.Gamma, cfg.Alpha, i, got, want)
			}
		}
	}
}

// TestFocalGammaZeroMatchesCrossEntropy: at γ=0 with nil α the focal
// loss is plain softmax cross-entropy — loss and gradient agree to
// floating-point noise.
func TestFocalGammaZeroMatchesCrossEntropy(t *testing.T) {
	logits, labels := randLogitsLabels(12, 13)
	var ce SoftmaxCrossEntropy[float64]
	fl := NewFocal[float64](FocalParams{Gamma: 0})
	lc, err := ce.Loss(logits, labels)
	if err != nil {
		t.Fatalf("ce: %v", err)
	}
	lf, err := fl.Loss(logits, labels)
	if err != nil {
		t.Fatalf("focal: %v", err)
	}
	if math.Abs(lc-lf) > 1e-12*(1+math.Abs(lc)) {
		t.Fatalf("γ=0 focal loss %.12g != cross-entropy %.12g", lf, lc)
	}
	gc, gf := ce.Grad(), fl.Grad()
	for i := range gc.Data {
		if math.Abs(gc.Data[i]-gf.Data[i]) > 1e-12 {
			t.Fatalf("γ=0 focal grad [%d] = %.12g, ce %.12g", i, gf.Data[i], gc.Data[i])
		}
	}
}

// TestFocalDownWeightsEasyPixels pins the defining property: with γ>0, a
// confidently-correct pixel contributes far less loss than under plain
// cross-entropy, while a misclassified pixel keeps nearly all of its.
func TestFocalDownWeightsEasyPixels(t *testing.T) {
	// One-pixel evaluations: pix(6,0) is confident-correct for class 0
	// (logit margin 6), pix(0,6) confident-wrong.
	pix := func(c0, c1 float64, lab uint8, crit Criterion[float64]) float64 {
		l := tensor.New[float64](1, 2, 1, 1)
		l.Data[0], l.Data[1] = c0, c1
		v, err := crit.Loss(l, []uint8{lab})
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	var ce SoftmaxCrossEntropy[float64]
	fl := NewFocal[float64](FocalParams{Gamma: 2})
	easyRatio := pix(6, 0, 0, fl) / pix(6, 0, 0, &ce)
	hardRatio := pix(0, 6, 0, fl) / pix(0, 6, 0, &ce)
	if easyRatio > 1e-4 {
		t.Fatalf("easy pixel kept %.2g of its CE loss, want ≪ 1", easyRatio)
	}
	if hardRatio < 0.9 {
		t.Fatalf("hard pixel kept only %.2g of its CE loss, want ≈ 1", hardRatio)
	}
}

// TestFocalValidation: malformed inputs surface as errors.
func TestFocalValidation(t *testing.T) {
	logits, labels := randLogitsLabels(20, 21)
	if _, err := NewFocal[float64](FocalParams{Gamma: -1}).Loss(logits, labels); err == nil {
		t.Fatal("negative gamma accepted")
	}
	if _, err := NewFocal[float64](FocalParams{Gamma: 2, Alpha: []float64{1}}).Loss(logits, labels); err == nil {
		t.Fatal("short alpha accepted")
	}
	bad := make([]uint8, len(labels))
	copy(bad, labels)
	bad[3] = 9
	if _, err := NewFocal[float64](FocalParams{Gamma: 2}).Loss(logits, bad); err == nil {
		t.Fatal("out-of-range label accepted")
	}
}

// TestFocalDeterministic: identical inputs give bit-identical loss and
// gradient across repeated evaluations (the passes are serial loops, so
// this guards accidental introduction of order-dependent reduction).
func TestFocalDeterministic(t *testing.T) {
	logits, labels := randLogitsLabels(30, 31)
	f1 := NewFocal[float64](FocalParams{Gamma: 2, Alpha: []float64{0.3, 1, 0.7}})
	f2 := NewFocal[float64](FocalParams{Gamma: 2, Alpha: []float64{0.3, 1, 0.7}})
	l1, err := f1.Loss(logits, labels)
	if err != nil {
		t.Fatal(err)
	}
	l2, err := f2.Loss(logits, labels)
	if err != nil {
		t.Fatal(err)
	}
	if l1 != l2 {
		t.Fatalf("focal loss not bit-deterministic: %.17g vs %.17g", l1, l2)
	}
	g1, g2 := f1.Grad(), f2.Grad()
	for i := range g1.Data {
		if g1.Data[i] != g2.Data[i] {
			t.Fatalf("focal grad [%d] not bit-deterministic", i)
		}
	}
}
