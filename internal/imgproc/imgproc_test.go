package imgproc

import (
	"math"
	"testing"
	"testing/quick"

	"seaice/internal/raster"
)

func constGray(w, h int, v uint8) *raster.Gray {
	g := raster.NewGray(w, h)
	for i := range g.Pix {
		g.Pix[i] = v
	}
	return g
}

// at returns g's value at (x, y).
func at(g *raster.Gray, x, y int) uint8 { return g.Pix[y*g.W+x] }

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

func TestMedianFilterRemovesSaltPepper(t *testing.T) {
	g := constGray(15, 15, 100)
	g.Set(7, 7, 255)
	g.Set(3, 4, 0)
	m := MedianFilter(g, 1)
	if at(m, 7, 7) != 100 || at(m, 3, 4) != 100 {
		t.Fatalf("isolated outliers survived the median: %d %d", at(m, 7, 7), at(m, 3, 4))
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
					vals = append(vals, int(at(g, clampIdx(x+dx, g.W), clampIdx(y+dy, g.H))))
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
			if int(at(got, x, y)) != want {
				t.Fatalf("(%d,%d): got %d want %d", x, y, at(got, x, y), want)
			}
		}
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
		got := raster.NewGray(g.W, g.H)
		Threshold(got, g, 100, 255, c.kind)
		inPlace := g.Clone()
		Threshold(inPlace, inPlace, 100, 255, c.kind)
		for i := range c.want {
			if got.Pix[i] != c.want[i] || inPlace.Pix[i] != c.want[i] {
				t.Errorf("%v: pix %d = %d (in place %d), want %d", c.kind, i, got.Pix[i], inPlace.Pix[i], c.want[i])
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
	mask := raster.NewGray(g.W, g.H)
	Threshold(mask, g, th, 255, ThreshBinary)
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
