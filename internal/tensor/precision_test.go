package tensor

import (
	"fmt"
	"math"
	"testing"
)

// f32Near asserts the float32 kernel output matches the float64 reference
// within the documented PrecisionTolerance bound: |y32 − y64| ≤
// PrecisionTolerance · accLen · max(|y64|, 1), where accLen is the number
// of accumulated terms per output element. This is the cross-precision
// guarantee — within one precision the engine is bit-identical to its
// reference (see engine_test.go); across precisions only this bound holds.
func f32Near(t *testing.T, label string, workers, accLen int, got *Tensor[float32], want *Tensor[float64]) {
	t.Helper()
	if len(got.Data) != len(want.Data) {
		t.Fatalf("%s (workers=%d): %d elements, reference %d", label, workers, len(got.Data), len(want.Data))
	}
	tol := PrecisionTolerance * float64(accLen)
	for i := range want.Data {
		w := want.Data[i]
		if diff := math.Abs(float64(got.Data[i]) - w); diff > tol*math.Max(math.Abs(w), 1) {
			t.Fatalf("%s (workers=%d): element %d = %g, reference %g (diff %g > tol %g)",
				label, workers, i, got.Data[i], w, diff, tol*math.Max(math.Abs(w), 1))
		}
	}
}

// toF32 rounds a float64 tensor to float32 — the down-conversion a
// mixed-precision layer applies to weights and activations.
func toF32(x *Tensor[float64]) *Tensor[float32] { return Convert[float32](x) }

// TestF32MatMulWithinToleranceOfF64: the float32 GEMM on rounded inputs
// must match the float64 reference on the exact inputs within the stated
// k-scaled tolerance bound, at every worker count.
func TestF32MatMulWithinToleranceOfF64(t *testing.T) {
	shapes := []struct{ m, k, n int }{
		{1, 1, 1},
		{5, 7, 3},
		{8, 129, 33},
		{3, 5, 1031},
		{16, 72, 2048},
	}
	for _, s := range shapes {
		a := New[float64](s.m, s.k)
		b := New[float64](s.k, s.n)
		at := New[float64](s.k, s.m)
		fillDense(a, uint64(s.m*1000+s.k))
		fillDense(b, uint64(s.k*1000+s.n))
		fillDense(at, uint64(s.m*77+s.n))
		wantAB := MatMulRef(a, b)
		wantATB := MatMulATBRef(at, b)
		a32, b32, at32 := toF32(a), toF32(b), toF32(at)
		withWorkers(t, func(workers int) {
			label := fmt.Sprintf("%dx%dx%d", s.m, s.k, s.n)
			// +1 on the accumulation length covers the input rounding step.
			ab, atb := New[float32](s.m, s.n), New[float32](s.m, s.n)
			MatMulInto(ab, a32, b32)
			MatMulATBInto(atb, at32, b32)
			f32Near(t, "matmul "+label, workers, s.k+1, ab, wantAB)
			f32Near(t, "matmulATB "+label, workers, s.k+1, atb, wantATB)
		})
	}
}

// TestF32Im2ColExact: the unfold/fold transforms only move and add values;
// im2col (Im2ColRef, the legacy oracle's unfold) moves them
// untouched, so the float32 unfold of rounded input is exactly the rounded
// float64 unfold, and col2im accumulates at most kh·kw terms, bounded like
// a GEMM.
func TestF32Im2ColExact(t *testing.T) {
	x := New[float64](2, 3, 6, 5)
	fillDense(x, 42)
	wantCols := Im2ColRef(x, 3, 3, 1, 1)
	bitEqual(t, "im2col f32", 1, Im2ColRef(toF32(x), 3, 3, 1, 1), toF32(wantCols))

	grad := New[float64](wantCols.Shape[0], wantCols.Shape[1])
	fillDense(grad, 43)
	wantFold := Col2ImRef(grad, 2, 3, 6, 5, 3, 3, 1, 1)
	withWorkers(t, func(workers int) {
		fold := New[float32](2, 3, 6, 5)
		Col2ImInto(fold, toF32(grad), 3, 3, 1, 1)
		f32Near(t, "col2im f32", workers, 3*3+1, fold, wantFold)
	})
}
