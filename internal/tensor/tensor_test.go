package tensor

import (
	"math"
	"testing"
	"testing/quick"

	"seaice/internal/noise"
)

func TestNewShapeAndLen(t *testing.T) {
	x := New[float64](2, 3, 4)
	if x.Len() != 24 || x.Dim(1) != 3 {
		t.Fatalf("shape bookkeeping wrong: %v len %d", x.Shape, x.Len())
	}
}

func TestNewRejectsBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero dimension must panic")
		}
	}()
	New[float64](2, 0, 3)
}

func TestFromDataValidates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch must panic")
		}
	}()
	FromData([]float64{1, 2, 3}, 2, 2)
}

func TestReshapeSharesData(t *testing.T) {
	x := New[float64](2, 6)
	y := x.Reshape(3, 4)
	y.Data[0] = 42
	if x.Data[0] != 42 {
		t.Fatal("reshape must alias the data")
	}
}

func TestCloneAndZero(t *testing.T) {
	x := New[float64](4)
	x.Data[2] = 7
	c := x.Clone()
	x.Zero()
	if c.Data[2] != 7 || x.Data[2] != 0 {
		t.Fatal("clone/zero interaction wrong")
	}
}

func TestAddScale(t *testing.T) {
	a := FromData([]float64{1, 2}, 2)
	b := FromData([]float64{10, 20}, 2)
	a.AddInPlace(b)
	a.Scale(2)
	if a.Data[0] != 22 || a.Data[1] != 44 {
		t.Fatalf("got %v", a.Data)
	}
}

func matmulRef(a, b *F64) *F64 {
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[1]
	c := New[float64](m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for kk := 0; kk < k; kk++ {
				s += a.Data[i*k+kk] * b.Data[kk*n+j]
			}
			c.Data[i*n+j] = s
		}
	}
	return c
}

func randT(seed uint64, shape ...int) *F64 {
	x := New[float64](shape...)
	x.FillRandn(noise.NewRNG(seed, 1), 1)
	return x
}

// TestMatMulVariantsAgree: both multiply kernels must agree with the
// naive reference on random shapes.
func TestMatMulVariantsAgree(t *testing.T) {
	f := func(seed uint64, mRaw, kRaw, nRaw uint8) bool {
		m, k, n := int(mRaw)%7+1, int(kRaw)%7+1, int(nRaw)%7+1
		a := randT(seed, m, k)
		b := randT(seed+1, k, n)
		want := matmulRef(a, b)

		c1 := MatMul(a, b)
		// Aᵀ form: build at (k×m) with at[kk][i] = a[i][kk]
		at := New[float64](k, m)
		for i := 0; i < m; i++ {
			for kk := 0; kk < k; kk++ {
				at.Data[kk*m+i] = a.Data[i*k+kk]
			}
		}
		c2 := MatMulATB(at, b)

		for i := range want.Data {
			if math.Abs(c1.Data[i]-want.Data[i]) > 1e-9 ||
				math.Abs(c2.Data[i]-want.Data[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMatMulShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("shape mismatch must panic")
		}
	}()
	MatMul(New[float64](2, 3), New[float64](4, 2))
}

// The im2col tests below pin Im2ColRef — the unfold of the legacy conv
// oracle that the engine's layers are compared against (the engine itself
// has a direct kernel per conv shape and no unfold).

// TestIm2ColIdentityKernel: with a 1×1 kernel, im2col is a reshape.
func TestIm2ColIdentityKernel(t *testing.T) {
	x := randT(5, 2, 3, 4, 4)
	cols := Im2ColRef(x, 1, 1, 1, 0)
	if cols.Shape[0] != 3 || cols.Shape[1] != 2*16 {
		t.Fatalf("cols shape %v", cols.Shape)
	}
	// column j of channel c equals x at that position
	for img := 0; img < 2; img++ {
		for c := 0; c < 3; c++ {
			for p := 0; p < 16; p++ {
				got := cols.Data[c*32+img*16+p]
				want := x.Data[(img*3+c)*16+p]
				if got != want {
					t.Fatalf("im2col mismatch at img %d c %d p %d", img, c, p)
				}
			}
		}
	}
}

// TestIm2ColConvMatchesDirect: weights × im2col must equal a directly
// computed convolution.
func TestIm2ColConvMatchesDirect(t *testing.T) {
	x := randT(6, 1, 2, 5, 5)
	w := randT(7, 3, 2*3*3) // 3 output channels, 3×3 kernel
	cols := Im2ColRef(x, 3, 3, 1, 1)
	out := MatMul(w, cols) // (3, N*5*5)

	// direct convolution
	for oc := 0; oc < 3; oc++ {
		for oy := 0; oy < 5; oy++ {
			for ox := 0; ox < 5; ox++ {
				sum := 0.0
				for c := 0; c < 2; c++ {
					for ky := 0; ky < 3; ky++ {
						for kx := 0; kx < 3; kx++ {
							iy, ix := oy+ky-1, ox+kx-1
							if iy < 0 || iy >= 5 || ix < 0 || ix >= 5 {
								continue
							}
							sum += w.Data[oc*18+(c*3+ky)*3+kx] * x.Data[(c*5+iy)*5+ix]
						}
					}
				}
				got := out.Data[oc*25+oy*5+ox]
				if math.Abs(got-sum) > 1e-9 {
					t.Fatalf("conv mismatch at oc=%d (%d,%d): %g vs %g", oc, ox, oy, got, sum)
				}
			}
		}
	}
}

// TestCol2ImAdjoint: <Im2ColRef(x), y> == <x, Col2Im(y)> — the defining
// property of the adjoint, which is exactly what backprop requires.
func TestCol2ImAdjoint(t *testing.T) {
	const n, c, h, w, k, pad = 2, 2, 4, 4, 3, 1
	x := randT(8, n, c, h, w)
	cols := Im2ColRef(x, k, k, 1, pad)
	y := randT(9, cols.Shape[0], cols.Shape[1])

	// <Im2ColRef(x), y>
	lhs := 0.0
	for i := range cols.Data {
		lhs += cols.Data[i] * y.Data[i]
	}
	// <x, Col2Im(y)>
	back := Col2Im(y, n, c, h, w, k, k, 1, pad)
	rhs := 0.0
	for i := range x.Data {
		rhs += x.Data[i] * back.Data[i]
	}
	if math.Abs(lhs-rhs) > 1e-9*(1+math.Abs(lhs)) {
		t.Fatalf("adjoint identity violated: %g vs %g", lhs, rhs)
	}
}

func TestIm2ColStride2(t *testing.T) {
	x := randT(10, 1, 1, 6, 6)
	cols := Im2ColRef(x, 2, 2, 2, 0)
	if cols.Shape[0] != 4 || cols.Shape[1] != 9 {
		t.Fatalf("stride-2 cols shape %v, want [4 9]", cols.Shape)
	}
}
