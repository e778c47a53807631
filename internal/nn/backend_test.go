package nn

import (
	"fmt"
	"math"
	"testing"

	"seaice/internal/noise"
	"seaice/internal/pool"
	"seaice/internal/tensor"
)

// float32Backends are the float32 kernel backends these tests run under;
// one the host cannot run is skipped.
var float32Backends = []string{"engine", "avx2"}

// useFloat32Backend activates the named float32 kernel backend for the
// rest of the test and restores the previous one afterwards. Tests that
// switch backends do not run in parallel.
func useFloat32Backend(t *testing.T, name string) {
	t.Helper()
	prev := tensor.Float[float32]().Name
	if err := tensor.SelectFloat[float32](name); err != nil {
		t.Skip(err)
	}
	t.Cleanup(func() {
		if err := tensor.SelectFloat[float32](prev); err != nil {
			t.Fatal(err)
		}
	})
}

func sameBits(t *testing.T, label string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d elements, want %d", label, len(got), len(want))
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: element %d = %g, want %g", label, i, got[i], want[i])
		}
	}
}

func randn(seed uint64, n int) []float32 {
	if n == 0 {
		return nil
	}
	t := tensor.New[float32](n)
	t.FillRandn(noise.NewRNG(seed, 3), 1)
	return t.Data
}

// TestWeightGradGemmMatchesDirect: the GEMM-form 3×3 weight gradient must
// equal the direct kernel bit for bit — on the U-Net's layer shapes, on
// planes too small or too odd for any fast path, on batches that span
// several im2col blocks with a ragged last one, with gradient already
// sitting in Grad — under every backend's panel and any worker count.
func TestWeightGradGemmMatchesDirect(t *testing.T) {
	shapes := []struct{ n, inC, outC, h, w int }{
		{4, 3, 8, 32, 32}, {4, 8, 8, 32, 32}, {4, 8, 16, 16, 16}, {4, 16, 32, 8, 8},
		{4, 32, 64, 4, 4}, {4, 64, 64, 4, 4}, {4, 64, 32, 8, 8}, {2, 16, 8, 32, 32},
		{1, 2, 3, 1, 1}, {2, 3, 5, 1, 2}, {1, 1, 1, 2, 1}, {3, 2, 6, 5, 7}, {2, 5, 7, 3, 2},
		{1, 4, 4, 6, 10}, {5, 3, 9, 33, 31}, {3, 40, 5, 9, 9},
	}
	defer pool.SetSharedWorkers(0)
	for _, backend := range float32Backends {
		t.Run(backend, func(t *testing.T) {
			useFloat32Backend(t, backend)
			for i, s := range shapes {
				c := NewConv2D[float32]("c", s.inC, s.outC, 3, noise.NewRNG(uint64(i), 1))
				x := randn(uint64(100+i), s.n*s.inC*s.h*s.w)
				dout := randn(uint64(200+i), s.outC*s.n*s.h*s.w)
				incoming := randn(uint64(300+i), s.outC*s.inC*9)

				copy(c.Weight.Grad.Data, incoming)
				conv3x3WeightGradRange(c, x, dout, s.n, s.h, s.w, 0, s.outC)
				want := append([]float32(nil), c.Weight.Grad.Data...)

				for _, workers := range []int{1, 2, 3} {
					pool.SetSharedWorkers(workers)
					copy(c.Weight.Grad.Data, incoming)
					conv3x3WeightGradGemm(pool.Shared(), tensor.Float[float32](), c, x, dout, s.n, s.h, s.w)
					sameBits(t, fmt.Sprintf("%s workers=%d %+v", backend, workers, s), c.Weight.Grad.Data, want)
				}
			}
		})
	}
}

// TestWinogradBatchedMatchesPerRow: batching the transform-domain products
// over many tile rows — across image boundaries — must not change a bit
// relative to one product set per tile row — for F(4×4) and F(2×2), the
// serial inference entry with the virtualised skip-concat source and the
// pooled training entries (channel-major dout included), under every
// backend and any worker count. Tile budgets of 3 and 5 tile rows end
// batches in the middle of an image, and the pool's 2- and 3-way splits
// of the (image, tile-row) units start ranges in the middle of one. The
// per-row engine result is the single reference for all of them. (Special
// values, ReLU off and out-of-range writes are
// TestWinogradTransformConformance's.)
func TestWinogradBatchedMatchesPerRow(t *testing.T) {
	type shape struct{ n, ca, cb, outC, h, w int }
	shapes := []shape{
		{4, 8, 0, 8, 32, 32}, {4, 16, 16, 8, 16, 16}, {4, 32, 32, 32, 8, 8}, {5, 64, 0, 64, 4, 4},
		{3, 4, 4, 8, 32, 32}, {2, 16, 16, 16, 8, 8}, {5, 8, 8, 16, 8, 8}, {2, 32, 0, 32, 4, 4}, {3, 16, 16, 32, 4, 4},
		{3, 5, 4, 7, 12, 20}, // F(4×4), ragged channel counts
		// Batches that are not a multiple of the eight tiles a SIMD backend
		// transforms per register: 12 and 9 tiles in one batch, 10-tile
		// batches at rows=5, and exactly eight images in one register.
		{3, 8, 8, 8, 8, 8}, {9, 16, 0, 16, 4, 4}, {6, 4, 4, 8, 8, 8}, {8, 32, 0, 32, 4, 4},
		{3, 4, 3, 6, 6, 10}, {4, 8, 8, 5, 2, 2}, {2, 3, 0, 4, 14, 6}, // F(2×2) planes
		{2, 4, 0, 4, 6, 6}, {5, 3, 3, 4, 6, 6},
	}
	perRow := func(s shape, c *Conv2D[float32], xa, xb, dout []float32) (y, dx []float32) {
		wg := NewWinograd[float32](false)
		wg.batchTiles = 1
		y = make([]float32, s.n*s.outC*s.h*s.w)
		wg.Conv(c, xa, s.ca, xb, s.cb, s.n, s.h, s.w, y, true)
		if usable4(s.h, s.w) {
			dx = make([]float32, s.n*(s.ca+s.cb)*s.h*s.w)
			wg.InputGradBatch(pool.Serial(), c, dout, s.n, s.h, s.w, dx)
		}
		return y, dx
	}
	defer pool.SetSharedWorkers(0)
	for i, s := range shapes {
		inC := s.ca + s.cb
		c := NewConv2D[float32]("c", inC, s.outC, 3, noise.NewRNG(uint64(i), 2))
		copy(c.Bias.W.Data, randn(uint64(50+i), s.outC))
		xa := randn(uint64(100+i), s.n*s.ca*s.h*s.w)
		xb := randn(uint64(200+i), s.n*s.cb*s.h*s.w)
		dout := randn(uint64(300+i), s.outC*s.n*s.h*s.w)
		// The pooled entries take one NCHW buffer: interleave xa and xb.
		plane := s.h * s.w
		x := make([]float32, 0, s.n*inC*plane)
		for img := 0; img < s.n; img++ {
			x = append(x, xa[img*s.ca*plane:(img+1)*s.ca*plane]...)
			x = append(x, xb[img*s.cb*plane:(img+1)*s.cb*plane]...)
		}

		var wantY, wantDx []float32
		t.Run("reference", func(t *testing.T) {
			useFloat32Backend(t, "engine")
			wantY, wantDx = perRow(s, c, xa, xb, dout)
		})
		for _, backend := range float32Backends {
			t.Run(backend, func(t *testing.T) {
				useFloat32Backend(t, backend)
				label := fmt.Sprintf("%s %+v", backend, s)
				y, dx := perRow(s, c, xa, xb, dout)
				sameBits(t, label+" per-row Conv", y, wantY)
				sameBits(t, label+" per-row InputGrad", dx, wantDx)

				tile := 2
				if usable4(s.h, s.w) {
					tile = 4
				}
				for _, rows := range []int{0, 3, 5} { // 0: the default budget
					wg := NewWinograd[float32](false)
					wg.batchTiles = rows * (s.w / tile)
					bl := fmt.Sprintf("%s rows=%d", label, rows)
					y = make([]float32, len(wantY))
					wg.Conv(c, xa, s.ca, xb, s.cb, s.n, s.h, s.w, y, true)
					sameBits(t, bl+" batched Conv", y, wantY)
					if tile == 2 {
						continue
					}
					for _, workers := range []int{1, 2, 3} {
						pool.SetSharedWorkers(workers)
						wl := fmt.Sprintf("%s workers=%d", bl, workers)
						y, dx = make([]float32, len(wantY)), make([]float32, len(wantDx))
						wg.ConvBatch(pool.Shared(), c, x, s.n, s.h, s.w, y, true)
						sameBits(t, wl+" ConvBatch", y, wantY)
						wg.InputGradBatch(pool.Shared(), c, dout, s.n, s.h, s.w, dx)
						sameBits(t, wl+" InputGradBatch", dx, wantDx)
					}
				}
			})
		}
	}
}
