package cloudfilter

import (
	"math"
	"testing"

	"seaice/internal/imgproc"
	"seaice/internal/noise"
	"seaice/internal/raster"
	"seaice/internal/scene"
)

// TestResultFieldsPopulated: the filter must return all its estimates
// with scene dimensions.
func TestResultFieldsPopulated(t *testing.T) {
	cfg := scene.DefaultConfig(201)
	cfg.W, cfg.H = 128, 128
	sc, _ := scene.Generate(cfg)
	res := FilterDefault(sc.Image)
	if res.Image == nil || res.CloudMask == nil || res.Opacity == nil || res.Shadow == nil {
		t.Fatal("result fields missing")
	}
	if res.Image.W != 128 || res.CloudMask.W != 128 || res.Opacity.W != 128 {
		t.Fatal("result sizes wrong")
	}
	for i, a := range res.Opacity.Pix {
		if a < 0 || a > DefaultConfig().MaxOpacity+1e-9 {
			t.Fatalf("opacity[%d] = %f outside [0,max]", i, a)
		}
	}
	for i, s := range res.Shadow.Pix {
		if s < 0 || s > DefaultConfig().MaxShadow+1e-9 {
			t.Fatalf("shadow[%d] = %f outside [0,max]", i, s)
		}
	}
}

// TestCloudMaskCoversTruth: the estimated disturbance mask must cover
// most truly disturbed pixels (high recall — missed clouds stay
// uncorrected) while not ballooning far past the true disturbed area
// (the estimate is deliberately dilated, so moderate over-detection is
// expected and harmless).
func TestCloudMaskCoversTruth(t *testing.T) {
	cfg := scene.DefaultConfig(42)
	cfg.W, cfg.H = 512, 512
	sc, _ := scene.Generate(cfg)
	res := FilterDefault(sc.Image)

	est, truth, inter := 0, 0, 0
	for i := range res.CloudMask.Pix {
		e, tr := res.CloudMask.Pix[i] != 0, sc.CloudMask.Pix[i] != 0
		if e {
			est++
		}
		if tr {
			truth++
		}
		if e && tr {
			inter++
		}
	}
	if est == 0 {
		t.Fatal("no disturbance detected on a cloudy scene")
	}
	recall := float64(inter) / float64(truth)
	ratio := float64(est) / float64(truth)
	t.Logf("cloud-mask recall %.3f, detected/true area ratio %.2f", recall, ratio)
	if recall < 0.70 {
		t.Fatalf("cloud-mask recall %.3f < 0.70", recall)
	}
	if ratio > 1.8 {
		t.Fatalf("mask %.2f× larger than the true disturbed area", ratio)
	}
}

// TestFilterDeterministic: same input, same output.
func TestFilterDeterministic(t *testing.T) {
	cfg := scene.DefaultConfig(202)
	cfg.W, cfg.H = 128, 128
	sc, _ := scene.Generate(cfg)
	a := FilterDefault(sc.Image)
	b := FilterDefault(sc.Image)
	for i := range a.Image.Pix {
		if a.Image.Pix[i] != b.Image.Pix[i] {
			t.Fatal("filter not deterministic")
		}
	}
}

// TestFilterDoesNotMutateInput.
func TestFilterDoesNotMutateInput(t *testing.T) {
	cfg := scene.DefaultConfig(203)
	cfg.W, cfg.H = 96, 96
	sc, _ := scene.Generate(cfg)
	before := append([]uint8(nil), sc.Image.Pix...)
	FilterDefault(sc.Image)
	for i := range before {
		if sc.Image.Pix[i] != before[i] {
			t.Fatal("filter mutated its input")
		}
	}
}

// TestDilateOpacityQuantization: the quantized max must bound the true
// values from above within one quantization step.
func TestDilateOpacityQuantization(t *testing.T) {
	q := raster.NewGray(8, 8)
	q.Set(3, 3, quantOpacity(0.4))
	d := raster.NewFloat(8, 8)
	dilateOpacity(d, q, 2)
	if d.Pix[3*d.W+3] < 0.4-1.0/500 || d.Pix[3*d.W+3] > 0.4+1.0/500 {
		t.Fatalf("peak value %f drifted from 0.4", d.Pix[3*d.W+3])
	}
	if d.Pix[5*d.W+5] < 0.4-1.0/500 {
		t.Fatalf("dilation did not spread: %f", d.Pix[5*d.W+5])
	}
	if d.Pix[7*d.W+7] != 0 {
		t.Fatalf("dilation spread too far: %f", d.Pix[7*d.W+7])
	}
}

// TestSmoothInPlaceConstant: Gaussian smoothing of a constant field is
// the identity.
func TestSmoothInPlaceConstant(t *testing.T) {
	f := raster.NewFloat(16, 16)
	for i := range f.Pix {
		f.Pix[i] = 0.3
	}
	smoothInPlace(f, 3, make([]float64, smoothLineLen(16, 16, 3)))
	for i, v := range f.Pix {
		if v < 0.299 || v > 0.301 {
			t.Fatalf("constant field changed at %d: %f", i, v)
		}
	}
}

// smoothTwoPlane is the separable Gaussian written out over a
// horizontal-pass plane and an output plane, with border replication.
func smoothTwoPlane(src *raster.Float, sigma float64) *raster.Float {
	k := imgproc.GaussianKernel(sigma)
	radius := len(k) / 2
	w, h := src.W, src.H
	tmp, dst := raster.NewFloat(w, h), raster.NewFloat(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			sum := 0.0
			for i, kv := range k {
				xx := min(max(x+i-radius, 0), w-1)
				sum += float64(kv * src.Pix[y*w+xx])
			}
			tmp.Pix[y*w+x] = sum
		}
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			sum := 0.0
			for i, kv := range k {
				yy := min(max(y+i-radius, 0), h-1)
				sum += float64(kv * tmp.Pix[yy*w+x])
			}
			dst.Pix[y*w+x] = sum
		}
	}
	return dst
}

// TestSmoothInPlaceMatchesTwoPlane: the in-place Gaussian equals the
// two-plane convolution bit for bit, on shapes wider and taller than the
// kernel and narrower than it, and at the filter's own σ on the shapes it
// runs on: a 32² serving tile, strips, a line longer than the radius but
// shorter than the kernel, and single pixels and lines. Beside uniform
// draws the inputs hold ±0, a tiny and a huge value, so a border prefix
// summed in another order than the taps changes some output's bits.
func TestSmoothInPlaceMatchesTwoPlane(t *testing.T) {
	rng := noise.NewRNG(11, 1)
	special := []float64{0, math.Copysign(0, -1), 1e-300, 1e6}
	type shape struct {
		w, h  int
		sigma float64
	}
	shapes := []shape{{40, 23, 3}, {17, 41, 6}, {5, 3, 6}, {1, 9, 2}}
	for _, sigma := range []float64{6, 20} {
		for _, wh := range [][2]int{{32, 32}, {256, 7}, {61, 130}, {1, 1}, {121, 1}} {
			shapes = append(shapes, shape{wh[0], wh[1], sigma})
		}
	}
	for _, c := range shapes {
		f := raster.NewFloat(c.w, c.h)
		for i := range f.Pix {
			f.Pix[i] = rng.Float64()
			if j := rng.Intn(2 * len(special)); j < len(special) {
				f.Pix[i] = special[j]
			}
		}
		want := smoothTwoPlane(f, c.sigma)
		smoothInPlace(f, c.sigma, make([]float64, smoothLineLen(c.w, c.h, c.sigma)))
		for i := range f.Pix {
			if math.Float64bits(f.Pix[i]) != math.Float64bits(want.Pix[i]) {
				t.Fatalf("%d×%d σ=%v: pixel %d = %v, want %v", c.w, c.h, c.sigma, i, f.Pix[i], want.Pix[i])
			}
		}
	}
}

// TestColorfulMeanMatchesDirect: the running integer window sums give the
// same byte as a direct scan of each clipped window, on sizes around the
// window radius.
func TestColorfulMeanMatchesDirect(t *testing.T) {
	rng := noise.NewRNG(31, 1)
	const floor = 15
	for _, c := range []struct{ w, h, radius int }{{10, 7, 2}, {31, 29, 7}, {5, 9, 12}, {13, 4, 0}} {
		sat := raster.NewGray(c.w, c.h)
		for i := range sat.Pix {
			if rng.Float64() < 0.5 {
				sat.Pix[i] = uint8(rng.Intn(floor)) // gray
			} else {
				sat.Pix[i] = uint8(rng.Intn(256))
			}
		}
		rows := 0
		colorfulMeanRows(sat, floor, c.radius, func(y int, meanS []uint8) {
			if y != rows {
				t.Fatalf("row %d delivered as row %d", rows, y)
			}
			rows++
			for x := range meanS {
				sum, cnt, n := 0.0, 0.0, 0.0
				for yy := max(y-c.radius, 0); yy <= min(y+c.radius, c.h-1); yy++ {
					for xx := max(x-c.radius, 0); xx <= min(x+c.radius, c.w-1); xx++ {
						if s := sat.Pix[yy*sat.W+xx]; s >= floor {
							sum += float64(s)
							cnt++
						}
						n++
					}
				}
				var want uint8
				if cnt/n >= 0.05 {
					want = uint8(min((sum/n)/(cnt/n), 255) + 0.5)
				}
				if meanS[x] != want {
					t.Fatalf("%d×%d r=%d: mean at (%d,%d) = %d, want %d", c.w, c.h, c.radius, x, y, meanS[x], want)
				}
			}
		})
		if rows != c.h {
			t.Fatalf("%d×%d r=%d: %d rows delivered", c.w, c.h, c.radius, rows)
		}
	}
}
