package nn

import (
	"fmt"
	"math"
	"testing"

	"seaice/internal/noise"
	"seaice/internal/pool"
	"seaice/internal/tensor"
)

// convT2x2Range is the up-convolution's definition, and the reference
// ConvT2x2Planes must reproduce bit for bit: output planes (image,
// out-channel) [lo,hi), each element +0, then every input channel's
// product in ascending order, then the bias.
func convT2x2Range[S tensor.Scalar](u *ConvTranspose2x2[S], x []S, h, w int, dst []S, lo, hi int) {
	plane := 4 * h * w
	for t := lo; t < hi; t++ {
		img, oc := t/u.OutC, t%u.OutC
		yp := dst[(img*u.OutC+oc)*plane : (img*u.OutC+oc+1)*plane]
		for i := range yp {
			yp[i] = 0
		}
		for ic := 0; ic < u.InC; ic++ {
			k := u.Weight.W.Data[ic*u.OutC*4+oc*4 : ic*u.OutC*4+oc*4+4]
			k0, k1, k2, k3 := k[0], k[1], k[2], k[3]
			xp := x[(img*u.InC+ic)*h*w : (img*u.InC+ic+1)*h*w]
			for iy := 0; iy < h; iy++ {
				row0 := yp[(2*iy)*(2*w):]
				row1 := yp[(2*iy+1)*(2*w):]
				xr := xp[iy*w : (iy+1)*w]
				for ix, v := range xr {
					row0[2*ix] += v * k0
					row0[2*ix+1] += v * k1
					row1[2*ix] += v * k2
					row1[2*ix+1] += v * k3
				}
			}
		}
		b := u.Bias.W.Data[oc]
		for i := range yp {
			yp[i] += b
		}
	}
}

// convTCase is one up-convolution shape: n images of inC channels on an
// h×w plane, outC output channels.
type convTCase struct{ n, inC, outC, h, w int }

var convTCases = []convTCase{
	{1, 3, 5, 1, 1}, {1, 12, 3, 2, 5}, {3, 5, 12, 3, 2}, {4, 12, 5, 4, 7},
	{3, 3, 3, 8, 8}, {4, 5, 12, 2, 9}, {1, 64, 32, 4, 4}, {4, 32, 16, 8, 8},
	{3, 16, 8, 16, 16}, {4, 12, 12, 5, 3},
}

// convTOperands draws an up-convolution with a nonzero bias and its input.
func convTOperands[S tensor.Scalar](s convTCase, seed uint64) (*ConvTranspose2x2[S], []S) {
	u := NewConvTranspose2x2[S]("up", s.inC, s.outC, noise.NewRNG(seed, 5))
	u.Bias.W.FillRandn(noise.NewRNG(seed, 6), 1)
	x := tensor.New[S](s.n, s.inC, s.h, s.w)
	x.FillRandn(noise.NewRNG(seed, 7), 1)
	return u, x.Data
}

// TestConvT2x2MatchesReference: the GEMM-form up-convolution equals the
// per-plane reference bit for bit — channel counts that leave the panel's
// row (4·OutC) and column (h·w) tails, non-square planes, one to four
// images — in float32 under every backend and in float64, on a serial
// pool and a 3-worker one, and through the training layer's Forward.
// Adding the bias before the channel sum instead of after it fails here.
func TestConvT2x2MatchesReference(t *testing.T) {
	for _, backend := range float32Backends {
		t.Run("f32/"+backend, func(t *testing.T) {
			useFloat32Backend(t, backend)
			testConvT2x2[float32](t)
		})
	}
	t.Run("f64", testConvT2x2[float64])
}

func testConvT2x2[S tensor.Scalar](t *testing.T) {
	defer pool.SetSharedWorkers(0)
	for i, s := range convTCases {
		u, x := convTOperands[S](s, uint64(40+i))
		outLen := s.n * s.outC * 4 * s.h * s.w
		want := make([]S, outLen)
		convT2x2Range(u, x, s.h, s.w, want, 0, s.n*s.outC)

		a := make([]S, 4*s.outC*s.inC)
		ConvT2x2Weights(u, a)
		for _, workers := range []int{1, 3} {
			label := fmt.Sprintf("%+v workers=%d", s, workers)
			got := make([]S, outLen)
			ConvT2x2Planes(pool.New(workers), u, a, x, s.n, s.h, s.w, got, make([]S, outLen))
			sameBitsS(t, label+" ConvT2x2Planes", got, want)

			pool.SetSharedWorkers(workers)
			y := u.Forward(tensor.FromData(x, s.n, s.inC, s.h, s.w), true)
			sameBitsS(t, label+" Forward", y.Data, want)
		}
	}
}

// sameBitsS is sameBits for either float kind.
func sameBitsS[S tensor.Scalar](t *testing.T, label string, got, want []S) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d elements, want %d", label, len(got), len(want))
	}
	for i := range want {
		g, w := float64(got[i]), float64(want[i])
		if math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s: element %d = %g, want %g", label, i, g, w)
		}
	}
}

// BenchmarkConvT2x2 times the serial up-convolution of one image at the
// FastConfig U-Net's three decoder levels for a 32² tile (4²×64 → 8²×32,
// 8²×32 → 16²×16, 16²×16 → 32²×8), per float32 backend.
func BenchmarkConvT2x2(b *testing.B) {
	for _, l := range []struct{ side, inC int }{{4, 64}, {8, 32}, {16, 16}} {
		for _, backend := range float32Backends {
			b.Run(fmt.Sprintf("f32/%dx%dx%d/%s", l.side, l.side, l.inC, backend), func(b *testing.B) {
				useFloat32Backend(b, backend)
				s := convTCase{1, l.inC, l.inC / 2, l.side, l.side}
				u, x := convTOperands[float32](s, 1)
				a := make([]float32, 4*s.outC*s.inC)
				ConvT2x2Weights(u, a)
				y, c := make([]float32, 4*s.outC*s.h*s.w), make([]float32, 4*s.outC*s.h*s.w)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					ConvT2x2Planes(pool.Serial(), u, a, x, 1, s.h, s.w, y, c)
				}
			})
		}
	}
}
