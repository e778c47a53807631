package unet

import (
	"math"
	"slices"
	"testing"

	"seaice/internal/nn"
	"seaice/internal/noise"
	"seaice/internal/tensor"
)

// f32Model builds the float32 twin of a float64 model: FillRandn rounds
// the same float64 draws, so the f32 weights are exactly the rounded f64
// weights.
func f32Model(t *testing.T, cfg Config) (*Model[float64], *Model[float32]) {
	t.Helper()
	m64, err := New[float64](cfg)
	if err != nil {
		t.Fatal(err)
	}
	m32, err := New[float32](cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m64, m32
}

// TestF32SessionWithinToleranceOfF64: the float32 session (Winograd 3×3
// path) must match the float64 model's logits within the documented
// cross-precision bound. The accumulation length per logit is ~InC·9 per
// conv layer; the bound compounds across the depth of the network, so
// the test uses the per-layer bound times a small depth factor.
func TestF32SessionWithinToleranceOfF64(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cfg   Config
		n, sz int
	}{
		{"fast-2x32", FastConfig(7), 2, 32},
		{"depth2-2x8", Config{Depth: 2, BaseChannels: 4, InChannels: 3, Classes: 4, DropoutRate: 0, Seed: 10}, 2, 8},
		{"depth4-1x16", Config{Depth: 4, BaseChannels: 4, InChannels: 3, Classes: 3, DropoutRate: 0.2, Seed: 11}, 1, 16},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m64, m32 := f32Model(t, tc.cfg)
			x64 := tensor.New[float64](tc.n, tc.cfg.InChannels, tc.sz, tc.sz)
			rng := noise.NewRNG(42, 0xbeef)
			for i := range x64.Data {
				x64.Data[i] = rng.Float64()
			}
			x32 := tensor.Convert[float32](x64)

			want := m64.Forward(x64, false)
			s := NewSession(m32)
			got, err := s.Forward(x32)
			if err != nil {
				t.Fatal(err)
			}
			// Worst per-layer accumulation ~maxInC·9 taps; activations are
			// O(1); allow a generous depth-compounding factor of 8.
			maxInC := tc.cfg.BaseChannels << tc.cfg.Depth
			tol := tensor.PrecisionTolerance * float64(maxInC*9) * 8
			worst := 0.0
			for i := range want.Data {
				w := want.Data[i]
				diff := math.Abs(float64(got.Data[i]) - w)
				rel := diff / math.Max(math.Abs(w), 1)
				if rel > worst {
					worst = rel
				}
				if rel > tol {
					t.Fatalf("logit %d: f32 session %g vs f64 model %g (rel %.3g > tol %.3g)", i, got.Data[i], w, rel, tol)
				}
			}
			t.Logf("worst relative logit error %.3g (tol %.3g)", worst, tol)
		})
	}
}

// TestF32SessionDeterministic: two sessions over the same weights must
// produce bit-identical logits — Winograd reassociates arithmetic but is
// still a fixed serial algorithm.
func TestF32SessionDeterministic(t *testing.T) {
	_, m32 := f32Model(t, FastConfig(9))
	x := tensor.New[float32](2, 3, 16, 16)
	rng := noise.NewRNG(5, 1)
	for i := range x.Data {
		x.Data[i] = float32(rng.Float64())
	}
	a, err := NewSession(m32).Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	aCopy := slices.Clone(a.Data)
	b, err := NewSession(m32).Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range aCopy {
		if aCopy[i] != b.Data[i] {
			t.Fatalf("f32 session nondeterministic at logit %d", i)
		}
	}
}

// TestF32SessionOddPlanesFallBack: plane sizes the Winograd tiling cannot
// cover (odd, including the 1×1 bottleneck of a depth-k net on its
// minimum input) must still predict — the direct kernel handles them.
func TestF32SessionOddPlanesFallBack(t *testing.T) {
	cfg := Config{Depth: 3, BaseChannels: 4, InChannels: 3, Classes: 3, DropoutRate: 0, Seed: 13}
	m64, m32 := f32Model(t, cfg)
	// 8×8 input: bottleneck plane is 1×1 — odd, forced fallback.
	x64 := tensor.New[float64](1, 3, 8, 8)
	rng := noise.NewRNG(21, 3)
	for i := range x64.Data {
		x64.Data[i] = rng.Float64()
	}
	wantPred := nn.Predict(m64.Forward(x64, false))
	got, err := NewSession(m32).Predict(tensor.Convert[float32](x64))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(wantPred) {
		t.Fatalf("prediction length %d, want %d", len(got), len(wantPred))
	}
	diff := 0
	for i := range got {
		if got[i] != wantPred[i] {
			diff++
		}
	}
	// Argmax can legitimately flip on near-ties; on 64 pixels expect none
	// or almost none.
	if diff > len(got)/8 {
		t.Fatalf("%d/%d predictions differ between f32 session and f64 model", diff, len(got))
	}
}
