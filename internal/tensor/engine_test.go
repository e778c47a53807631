package tensor

import (
	"fmt"
	"slices"
	"testing"

	"seaice/internal/noise"
	"seaice/internal/pool"
)

// fillDense fills t with deterministic non-zero pseudo-random values. The
// engine kernels multiply zero A entries where the reference skips them —
// identical except for ±0 bit patterns — so the bit-for-bit properties are
// asserted on dense data, which is what weights and activations are.
func fillDense[S Scalar](t *Tensor[S], seed uint64) {
	rng := noise.NewRNG(seed, 0xe6e)
	for i := range t.Data {
		v := rng.NormFloat64()
		if v == 0 {
			v = 0.5
		}
		t.Data[i] = S(v)
	}
}

// withWorkers runs fn under each shared-pool size, restoring the default.
func withWorkers(t *testing.T, fn func(workers int)) {
	t.Helper()
	defer pool.SetSharedWorkers(0)
	for _, w := range []int{1, 3, 8} {
		pool.SetSharedWorkers(w)
		fn(w)
	}
}

func bitEqual[S Scalar](t *testing.T, label string, workers int, got, want *Tensor[S]) {
	t.Helper()
	if !slices.Equal(got.Shape, want.Shape) {
		t.Fatalf("%s (workers=%d): shape %v, want %v", label, workers, got.Shape, want.Shape)
	}
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("%s (workers=%d): element %d = %g, reference %g", label, workers, i, float64(got.Data[i]), float64(want.Data[i]))
		}
	}
}

// testMatMulMatchesReference: the blocked/parallel GEMM must reproduce the
// serial reference bit-for-bit across degenerate, odd, non-square, and
// block-boundary-crossing shapes, at every pool size — per precision; the
// bit-identity guarantee is precision-scoped.
func testMatMulMatchesReference[S Scalar](t *testing.T) {
	shapes := []struct{ m, k, n int }{
		{1, 1, 1},
		{1, 3, 2},
		{3, 1, 5},
		{2, 2, 2},
		{5, 7, 3},
		{4, 4, 4},
		{8, 129, 33},
		{7, 13, 517},
		{3, 5, 1031}, // crosses the parallel panel boundary with odd remainders
		{16, 72, 2048},
		{9, 27, 640},
	}
	for _, s := range shapes {
		a := New[S](s.m, s.k)
		b := New[S](s.k, s.n)
		at := New[S](s.k, s.m)
		fillDense(a, uint64(s.m*1000+s.k))
		fillDense(b, uint64(s.k*1000+s.n))
		fillDense(at, uint64(s.m*77+s.n))
		wantAB := MatMulRef(a, b)
		wantATB := MatMulATBRef(at, b)
		withWorkers(t, func(workers int) {
			label := fmt.Sprintf("%dx%dx%d", s.m, s.k, s.n)
			ab, atb := New[S](s.m, s.n), New[S](s.m, s.n)
			MatMulInto(ab, a, b)
			MatMulATBInto(atb, at, b)
			bitEqual(t, "matmul "+label, workers, ab, wantAB)
			bitEqual(t, "matmulATB "+label, workers, atb, wantATB)
		})
	}
}

func TestMatMulMatchesReference(t *testing.T) {
	t.Run("f64", testMatMulMatchesReference[float64])
	t.Run("f32", testMatMulMatchesReference[float32])
}

// TestMatMulIntoReusesBuffer: Into variants must fully overwrite a dirty
// destination and not allocate when the buffer already fits.
func TestMatMulIntoReusesBuffer(t *testing.T) {
	a := New[float64](5, 9)
	b := New[float64](9, 21)
	fillDense(a, 1)
	fillDense(b, 2)
	want := MatMulRef(a, b)

	var buf *Tensor[float64]
	dst := Grow(&buf, 5, 21)
	for i := range dst.Data {
		dst.Data[i] = 1e300 // poison: stale values must not leak through
	}
	MatMulInto(dst, a, b)
	bitEqual(t, "into", pool.Shared().Workers(), dst, want)
	if Grow(&buf, 5, 21) != dst {
		t.Fatalf("Grow reallocated a buffer that already fit")
	}
	if Grow(&buf, 3, 7); buf != dst {
		t.Fatalf("Grow shrink should reuse the backing tensor")
	}
}

// testIm2ColCol2ImMatchReference: the striped fold (col2im; the unfold
// is Im2ColRef, the legacy oracle's) must match the serial reference
// bit-for-bit over the reference unfold's column shapes: 1×1 images,
// non-square shapes, pad > 0, stride 2, and asymmetric kernels, at every
// pool size — per precision.
func testIm2ColCol2ImMatchReference[S Scalar](t *testing.T) {
	cases := []struct{ n, c, h, w, kh, kw, stride, pad int }{
		{1, 1, 1, 1, 1, 1, 1, 0},
		{1, 1, 1, 1, 3, 3, 1, 1},
		{2, 3, 4, 4, 3, 3, 1, 1},
		{1, 2, 5, 3, 3, 3, 1, 1},
		{2, 1, 6, 6, 2, 2, 2, 0},
		{1, 4, 7, 5, 3, 3, 2, 2},
		{3, 2, 4, 8, 1, 3, 1, 1},
		{1, 3, 9, 2, 3, 1, 1, 0},
		{2, 2, 8, 8, 5, 5, 1, 2},
	}
	for _, cs := range cases {
		x := New[S](cs.n, cs.c, cs.h, cs.w)
		fillDense(x, uint64(cs.c*100+cs.h*10+cs.w))
		cols := Im2ColRef(x, cs.kh, cs.kw, cs.stride, cs.pad)
		fillDense(cols, uint64(cs.h*13+cs.kw)) // arbitrary gradient-like data
		wantFold := Col2ImRef(cols, cs.n, cs.c, cs.h, cs.w, cs.kh, cs.kw, cs.stride, cs.pad)
		withWorkers(t, func(workers int) {
			label := fmt.Sprintf("n%dc%d %dx%d k%dx%d s%d p%d", cs.n, cs.c, cs.h, cs.w, cs.kh, cs.kw, cs.stride, cs.pad)
			// The fold over a poisoned reusable buffer.
			var foldBuf *Tensor[S]
			df := Grow(&foldBuf, cs.n, cs.c, cs.h, cs.w)
			for i := range df.Data {
				df.Data[i] = S(1e30)
			}
			Col2ImInto(df, cols, cs.kh, cs.kw, cs.stride, cs.pad)
			bitEqual(t, "col2imInto "+label, workers, df, wantFold)
		})
	}
}

func TestIm2ColCol2ImMatchReference(t *testing.T) {
	t.Run("f64", testIm2ColCol2ImMatchReference[float64])
	t.Run("f32", testIm2ColCol2ImMatchReference[float32])
}
