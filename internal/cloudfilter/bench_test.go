package cloudfilter

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"seaice/internal/noise"
	"seaice/internal/raster"
	"seaice/internal/scene"
)

// benchScene renders the campaign path's first scene at size×size.
func benchScene(tb testing.TB, size int) *raster.RGB {
	cc := scene.DefaultCollection(42)
	cc.W, cc.H = size, size
	sc, err := scene.GenerateAt(cc, 0)
	if err != nil {
		tb.Fatal(err)
	}
	return sc.Image
}

// BenchmarkFilter filters one whole 256² campaign scene and one 32²
// serving tile; the allocation columns are the filter's plane budget.
func BenchmarkFilter(b *testing.B) {
	for _, size := range []int{256, 32} {
		img := benchScene(b, size)
		b.Run(fmt.Sprint(size), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				FilterDefault(img)
			}
		})
	}
}

// BenchmarkSmoothInPlace runs the Gaussian alone at the filter's veil
// (σ = 6) and shadow (σ = 20) scales, on a 32² serving tile and a 256²
// scene.
func BenchmarkSmoothInPlace(b *testing.B) {
	for _, sigma := range []float64{6, 20} {
		for _, size := range []int{32, 256} {
			f := raster.NewFloat(size, size)
			rng := noise.NewRNG(5, 1)
			for i := range f.Pix {
				f.Pix[i] = rng.Float64()
			}
			line := make([]float64, smoothLineLen(size, size, sigma))
			b.Run(fmt.Sprintf("sigma=%v/%d", sigma, size), func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					smoothInPlace(f, sigma, line)
				}
			})
		}
	}
}

// TestFilterAllocationBound: one filter allocates at most 40 bytes per
// pixel, on a 256² scene and on a 32² serving tile. The four outputs
// take 20 (RGB image, 8-bit mask, two float64 planes); the rest is the
// weight plane of the shadow field and seven 8-bit planes of saturation,
// value and morphology scratch. On the tile the fixed costs (the staged
// line, its border prefix and the kernels) show as a few more bytes per
// pixel. The filter allocates the same bytes on every call, and another
// goroutine's allocation can only add to the process total, so the
// fewest bytes of five calls is the filter's own count.
func TestFilterAllocationBound(t *testing.T) {
	const maxPerPixel = 40
	for _, size := range []int{256, 32} {
		img := benchScene(t, size)
		bytes, mallocs := uint64(math.MaxUint64), uint64(0)
		for range 5 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			FilterDefault(img)
			runtime.ReadMemStats(&after)
			if b := after.TotalAlloc - before.TotalAlloc; b < bytes {
				bytes, mallocs = b, after.Mallocs-before.Mallocs
			}
		}
		perPixel := float64(bytes) / float64(size*size)
		t.Logf("%d²: %d B (%.1f B/px), %d allocations", size, bytes, perPixel, mallocs)
		if perPixel > maxPerPixel {
			t.Fatalf("%d² filter allocates %.1f B/px, want ≤ %d", size, perPixel, maxPerPixel)
		}
	}
}
