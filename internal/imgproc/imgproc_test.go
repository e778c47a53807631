package imgproc

import (
	"math"
	"testing"
	"testing/quick"

	"seaice/internal/noise"
	"seaice/internal/raster"
)

func constGray(w, h int, v uint8) *raster.Gray {
	g := raster.NewGray(w, h)
	g.Fill(v)
	return g
}

func TestBoxBlurPreservesConstant(t *testing.T) {
	g := constGray(16, 12, 77)
	b := BoxBlur(g, 3)
	for i, v := range b.Pix {
		if v != 77 {
			t.Fatalf("constant image changed at %d: %d", i, v)
		}
	}
}

func TestBoxBlurMatchesBruteForce(t *testing.T) {
	g := randGray(42, 13, 9)
	radius := 2
	got := BoxBlur(g, radius)
	for y := 0; y < g.H; y++ {
		for x := 0; x < g.W; x++ {
			sum, n := 0.0, 0.0
			for dy := -radius; dy <= radius; dy++ {
				for dx := -radius; dx <= radius; dx++ {
					xx, yy := clampIdx(x+dx, g.W), clampIdx(y+dy, g.H)
					sum += float64(g.At(xx, yy))
					n++
				}
			}
			// replicate-border box blur normalizes by window area, and
			// the separable version replicates per axis — recompute the
			// same way: clamp per axis independently.
			_ = n
			sep := 0.0
			win := float64(2*radius + 1)
			for dy := -radius; dy <= radius; dy++ {
				rowSum := 0.0
				for dx := -radius; dx <= radius; dx++ {
					rowSum += float64(g.At(clampIdx(x+dx, g.W), clampIdx(y+dy, g.H)))
				}
				sep += rowSum
			}
			want := sep / (win * win)
			if math.Abs(float64(got.At(x, y))-want) > 0.75 {
				t.Fatalf("(%d,%d): got %d want %.2f", x, y, got.At(x, y), want)
			}
		}
	}
}

func TestGaussianKernelNormalized(t *testing.T) {
	for _, sigma := range []float64{0.5, 1, 2.5, 8} {
		k := GaussianKernel(sigma)
		sum := 0.0
		for _, v := range k {
			sum += v
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("sigma %.1f: kernel sums to %g", sigma, sum)
		}
		if len(k)%2 != 1 {
			t.Fatalf("sigma %.1f: even kernel length %d", sigma, len(k))
		}
		// symmetric
		for i := range k {
			if math.Abs(k[i]-k[len(k)-1-i]) > 1e-15 {
				t.Fatalf("sigma %.1f: kernel asymmetric", sigma)
			}
		}
	}
}

func TestGaussianBlurPreservesConstantAndSmooths(t *testing.T) {
	g := constGray(20, 20, 90)
	b := GaussianBlur(g, 2)
	for i, v := range b.Pix {
		if v < 89 || v > 91 {
			t.Fatalf("constant image changed at %d: %d", i, v)
		}
	}
	// an impulse must spread: center loses mass, neighbors gain
	imp := raster.NewGray(21, 21)
	imp.Set(10, 10, 255)
	s := GaussianBlur(imp, 1.5)
	if s.At(10, 10) >= 255 || s.At(11, 10) == 0 {
		t.Fatalf("impulse did not spread: center %d neighbor %d", s.At(10, 10), s.At(11, 10))
	}
}

func TestMedianFilterRemovesSaltPepper(t *testing.T) {
	g := constGray(15, 15, 100)
	g.Set(7, 7, 255)
	g.Set(3, 4, 0)
	m := MedianFilter(g, 1)
	if m.At(7, 7) != 100 || m.At(3, 4) != 100 {
		t.Fatalf("isolated outliers survived the median: %d %d", m.At(7, 7), m.At(3, 4))
	}
}

func TestMedianFilterMatchesBruteForce(t *testing.T) {
	g := randGray(17, 11, 8)
	radius := 1
	got := MedianFilter(g, radius)
	for y := 0; y < g.H; y++ {
		for x := 0; x < g.W; x++ {
			var vals []int
			for dy := -radius; dy <= radius; dy++ {
				for dx := -radius; dx <= radius; dx++ {
					vals = append(vals, int(g.At(clampIdx(x+dx, g.W), clampIdx(y+dy, g.H))))
				}
			}
			// median of 9 values (with clamped duplicates)
			for i := 0; i < len(vals); i++ {
				for j := i + 1; j < len(vals); j++ {
					if vals[j] < vals[i] {
						vals[i], vals[j] = vals[j], vals[i]
					}
				}
			}
			want := vals[len(vals)/2]
			if int(got.At(x, y)) != want {
				t.Fatalf("(%d,%d): got %d want %d", x, y, got.At(x, y), want)
			}
		}
	}
}

func TestAbsDiff(t *testing.T) {
	a := constGray(4, 4, 100)
	b := constGray(4, 4, 160)
	d, err := AbsDiff(a, b)
	if err != nil {
		t.Fatalf("absdiff: %v", err)
	}
	for _, v := range d.Pix {
		if v != 60 {
			t.Fatalf("absdiff = %d, want 60", v)
		}
	}
	if _, err := AbsDiff(a, constGray(5, 4, 0)); err == nil {
		t.Fatal("expected size-mismatch error")
	}
}

func TestThresholdKinds(t *testing.T) {
	g := raster.NewGray(1, 5)
	copy(g.Pix, []uint8{0, 50, 100, 150, 250})
	cases := []struct {
		kind ThresholdKind
		want []uint8
	}{
		{ThreshBinary, []uint8{0, 0, 0, 255, 255}},
		{ThreshBinaryInv, []uint8{255, 255, 255, 0, 0}},
		{ThreshTrunc, []uint8{0, 50, 100, 100, 100}},
		{ThreshToZero, []uint8{0, 0, 0, 150, 250}},
		{ThreshToZeroInv, []uint8{0, 50, 100, 0, 0}},
	}
	for _, c := range cases {
		got := Threshold(g, 100, 255, c.kind)
		for i := range c.want {
			if got.Pix[i] != c.want[i] {
				t.Errorf("%v: pix %d = %d, want %d", c.kind, i, got.Pix[i], c.want[i])
			}
		}
	}
}

// TestOtsuSeparatesBimodal: on a clean bimodal histogram Otsu must land
// between the modes.
func TestOtsuSeparatesBimodal(t *testing.T) {
	g := raster.NewGray(10, 10)
	for i := range g.Pix {
		if i%2 == 0 {
			g.Pix[i] = 40
		} else {
			g.Pix[i] = 200
		}
	}
	th := OtsuThreshold(g)
	if th < 40 || th >= 200 {
		t.Fatalf("otsu threshold %d outside (40,200)", th)
	}
	mask := Threshold(g, th, 255, ThreshBinary)
	for i := range g.Pix {
		want := uint8(0)
		if g.Pix[i] > th {
			want = 255
		}
		if mask.Pix[i] != want {
			t.Fatalf("otsu mask wrong at %d", i)
		}
	}
}

// TestOtsuWithinSupport: the threshold always lies within the occupied
// intensity range.
func TestOtsuWithinSupport(t *testing.T) {
	f := func(seed uint64) bool {
		g := randGray(seed, 12, 12)
		mn, mx := g.Pix[0], g.Pix[0]
		for _, v := range g.Pix {
			if v < mn {
				mn = v
			}
			if v > mx {
				mx = v
			}
		}
		th := OtsuThreshold(g)
		return th >= mn && th <= mx
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestNormalizeMapsOntoRange(t *testing.T) {
	g := randGray(23, 9, 9)
	n := Normalize(g, 10, 240)
	mn, mx := n.Pix[0], n.Pix[0]
	for _, v := range n.Pix {
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	if mn != 10 || mx != 240 {
		t.Fatalf("normalized range [%d,%d], want [10,240]", mn, mx)
	}
	// constant image maps to lo
	c := Normalize(constGray(4, 4, 99), 10, 240)
	for _, v := range c.Pix {
		if v != 10 {
			t.Fatalf("constant image normalized to %d, want 10", v)
		}
	}
}

func TestApplyMaskAndSubtract(t *testing.T) {
	src := constGray(2, 2, 80)
	mask := raster.NewGray(2, 2)
	mask.Set(0, 0, 255)
	m, err := ApplyMask(src, mask)
	if err != nil {
		t.Fatalf("mask: %v", err)
	}
	if m.At(0, 0) != 80 || m.At(1, 1) != 0 {
		t.Fatalf("mask application wrong: %d %d", m.At(0, 0), m.At(1, 1))
	}

	s, err := Subtract(constGray(2, 2, 50), constGray(2, 2, 80))
	if err != nil {
		t.Fatalf("subtract: %v", err)
	}
	if s.At(0, 0) != 0 {
		t.Fatalf("saturating subtract gave %d, want 0", s.At(0, 0))
	}
}

func TestAddWeighted(t *testing.T) {
	a := constGray(2, 2, 100)
	b := constGray(2, 2, 200)
	out, err := AddWeighted(a, 0.5, b, 0.5, 10)
	if err != nil {
		t.Fatalf("addweighted: %v", err)
	}
	if out.At(0, 0) != 160 {
		t.Fatalf("0.5·100+0.5·200+10 = %d, want 160", out.At(0, 0))
	}
	// saturation
	sat, _ := AddWeighted(a, 2, b, 2, 0)
	if sat.At(0, 0) != 255 {
		t.Fatalf("expected saturation to 255, got %d", sat.At(0, 0))
	}
}

func TestCountNonZero(t *testing.T) {
	g := raster.NewGray(2, 3)
	g.Set(0, 0, 1)
	g.Set(1, 2, 200)
	if got := CountNonZero(g); got != 2 {
		t.Fatalf("count %d, want 2", got)
	}
}

func TestLocalVarianceFlatVsEdge(t *testing.T) {
	flat := constGray(12, 12, 128)
	v := LocalVariance(flat, 2)
	for _, x := range v.Pix {
		if x > 1e-9 {
			t.Fatalf("flat image has variance %g", x)
		}
	}
	// a hard edge has large variance at the boundary
	edge := raster.NewGray(12, 12)
	for y := 0; y < 12; y++ {
		for x := 6; x < 12; x++ {
			edge.Set(x, y, 250)
		}
	}
	ve := LocalVariance(edge, 2)
	if ve.At(6, 6) < 100 {
		t.Fatalf("edge variance %g too small", ve.At(6, 6))
	}
}

func TestBoxMeanFloatMatchesDirect(t *testing.T) {
	rng := noise.NewRNG(31, 1)
	f := raster.NewFloat(10, 7)
	for i := range f.Pix {
		f.Pix[i] = rng.Float64() * 100
	}
	radius := 2
	got := BoxMeanFloat(f, radius)
	for y := 0; y < f.H; y++ {
		for x := 0; x < f.W; x++ {
			sum, n := 0.0, 0.0
			x0, x1 := clampIdx(x-radius, f.W), clampIdx(x+radius, f.W)
			y0, y1 := clampIdx(y-radius, f.H), clampIdx(y+radius, f.H)
			for yy := y0; yy <= y1; yy++ {
				for xx := x0; xx <= x1; xx++ {
					sum += f.At(xx, yy)
					n++
				}
			}
			want := sum / n
			if math.Abs(got.At(x, y)-want) > 1e-9 {
				t.Fatalf("(%d,%d): got %g want %g", x, y, got.At(x, y), want)
			}
		}
	}
}
