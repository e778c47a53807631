package nn

import (
	"math"
	"testing"

	"seaice/internal/noise"
	"seaice/internal/pool"
	"seaice/internal/tensor"
)

// runSteps drives a layer through full forward/backward cycles on the
// same input, zeroing gradients between steps — the steady-state buffer
// reuse pattern of the training loop — and returns the gradients of the
// final step as detached copies.
func runSteps[S tensor.Scalar](layer Layer[S], x *tensor.Tensor[S], steps int) (dx *tensor.Tensor[S], grads []*tensor.Tensor[S]) {
	var y *tensor.Tensor[S]
	for s := 0; s < steps; s++ {
		ZeroGrads(layer.Params())
		y = layer.Forward(x, false)
		dx = layer.Backward(y.Clone()) // dL/dy = y for the ½Σy² loss
	}
	dxCopy := dx.Clone()
	for _, p := range layer.Params() {
		grads = append(grads, p.Grad.Clone())
	}
	return dxCopy, grads
}

// TestGradcheckWithBufferReuseAcrossSteps: after three consecutive
// forward/backward cycles through the reused scratch buffers, layer
// gradients must still match finite differences — stale buffer contents
// must never leak into a later step.
func TestGradcheckWithBufferReuseAcrossSteps(t *testing.T) {
	layers := []struct {
		name  string
		layer Layer[float64]
		shape []int
	}{
		{"conv3x3", NewConv2D[float64]("conv", 3, 4, 3, noise.NewRNG(1, 1)), []int{2, 3, 6, 5}},
		{"conv1x1", NewConv2D[float64]("conv1x1", 4, 3, 1, noise.NewRNG(2, 1)), []int{2, 4, 5, 5}},
		{"convT", NewConvTranspose2x2[float64]("up", 4, 2, noise.NewRNG(3, 1)), []int{2, 4, 3, 5}},
	}
	for _, lc := range layers {
		t.Run(lc.name, func(t *testing.T) {
			rng := noise.NewRNG(99, 7)
			x := tensor.New[float64](lc.shape...)
			x.FillRandn(rng, 1)

			dx, grads := runSteps(lc.layer, x, 3)

			forwardLoss := func() float64 {
				y := lc.layer.Forward(x, false)
				s := 0.0
				for _, v := range y.Data {
					s += v * v
				}
				return s / 2
			}
			const tol = 1e-6
			for i := 0; i < x.Len(); i += 1 + x.Len()/17 {
				want := numGrad(x.Data, i, forwardLoss)
				if got := dx.Data[i]; math.Abs(got-want) > tol*(1+math.Abs(want)) {
					t.Fatalf("input grad [%d] = %.6g, finite diff %.6g", i, got, want)
				}
			}
			for pi, p := range lc.layer.Params() {
				for i := 0; i < p.W.Len(); i += 1 + p.W.Len()/13 {
					want := numGrad(p.W.Data, i, forwardLoss)
					if got := grads[pi].Data[i]; math.Abs(got-want) > tol*(1+math.Abs(want)) {
						t.Fatalf("param %s grad [%d] = %.6g, finite diff %.6g", p.Name, i, got, want)
					}
				}
			}
		})
	}
}

// TestEngineStepsMatchLegacySteps: three consecutive engine steps must
// produce bit-identical gradients to three steps of the pre-engine
// reference (refConv2D/refConvT: serial, allocate-per-step im2col/GEMM)
// for the convolution layers — the engine's accumulation orders are the
// reference's.
func TestEngineStepsMatchLegacySteps(t *testing.T) {
	// float64 is the master path: bit-identical to the reference.
	// float32 is tolerance-scoped — its 3×3 layers may take the Winograd
	// fast path, which reassociates arithmetic — so the f32 engine is
	// compared to the f32 reference within the documented bound instead
	// (accumulation length InC·9 with transform amplification headroom).
	t.Run("f64", func(t *testing.T) { testEngineStepsMatchLegacySteps[float64](t, 0) })
	t.Run("f32", func(t *testing.T) {
		testEngineStepsMatchLegacySteps[float32](t, tensor.PrecisionTolerance*9*4*64)
	})
}

func testEngineStepsMatchLegacySteps[S tensor.Scalar](t *testing.T, tol float64) {
	defer pool.SetSharedWorkers(0)
	build := func() (*Conv2D[S], *Conv2D[S], *ConvTranspose2x2[S]) {
		return NewConv2D[S]("conv", 3, 4, 3, noise.NewRNG(11, 1)),
			NewConv2D[S]("conv1x1", 4, 3, 1, noise.NewRNG(12, 1)),
			NewConvTranspose2x2[S]("up", 4, 2, noise.NewRNG(13, 1))
	}
	shapes := [][]int{{2, 3, 8, 8}, {2, 4, 7, 7}, {2, 4, 4, 6}}

	conv, conv1x1, up := build()
	ref := []Layer[S]{&refConv2D[S]{c: conv}, &refConv2D[S]{c: conv1x1}, &refConvT[S]{u: up}}
	var wantDx []*tensor.Tensor[S]
	var wantGrads [][]*tensor.Tensor[S]
	for li, l := range ref {
		x := tensor.New[S](shapes[li]...)
		x.FillRandn(noise.NewRNG(uint64(li), 5), 1)
		dx, grads := runSteps(l, x, 3)
		wantDx = append(wantDx, dx)
		wantGrads = append(wantGrads, grads)
	}

	for _, workers := range []int{1, 4} {
		pool.SetSharedWorkers(workers)
		conv, conv1x1, up := build()
		for li, l := range []Layer[S]{conv, conv1x1, up} {
			x := tensor.New[S](shapes[li]...)
			x.FillRandn(noise.NewRNG(uint64(li), 5), 1)
			dx, grads := runSteps(l, x, 3)
			for i := range wantDx[li].Data {
				if !closeEnough(float64(dx.Data[i]), float64(wantDx[li].Data[i]), tol) {
					t.Fatalf("workers=%d layer %s dx[%d] = %g, reference %g", workers, l.Name(), i, float64(dx.Data[i]), float64(wantDx[li].Data[i]))
				}
			}
			for pi := range grads {
				for i := range grads[pi].Data {
					if !closeEnough(float64(grads[pi].Data[i]), float64(wantGrads[li][pi].Data[i]), tol) {
						t.Fatalf("workers=%d layer %s param %d grad[%d] = %g, reference %g",
							workers, l.Name(), pi, i, float64(grads[pi].Data[i]), float64(wantGrads[li][pi].Data[i]))
					}
				}
			}
		}
	}
}

// closeEnough compares within a relative tolerance; tol 0 demands exact
// (bitwise) equality.
func closeEnough(got, want, tol float64) bool {
	if tol == 0 {
		return got == want
	}
	d := got - want
	if d < 0 {
		d = -d
	}
	lim := want
	if lim < 0 {
		lim = -lim
	}
	if lim < 1 {
		lim = 1
	}
	return d <= tol*lim
}
