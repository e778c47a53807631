package cloudfilter

import (
	"fmt"
	"runtime"
	"testing"

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

// TestFilterAllocationBound: one 256² filter allocates at most 40 bytes
// per pixel. The four outputs take 20 (RGB image, 8-bit mask, two
// float64 planes); the rest is the weight plane of the shadow field and
// seven 8-bit planes of saturation, value and morphology scratch.
func TestFilterAllocationBound(t *testing.T) {
	const size, maxPerPixel = 256, 40
	img := benchScene(t, size)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	FilterDefault(img)
	runtime.ReadMemStats(&after)
	bytes := after.TotalAlloc - before.TotalAlloc
	perPixel := float64(bytes) / (size * size)
	t.Logf("%d B (%.1f B/px), %d allocations", bytes, perPixel, after.Mallocs-before.Mallocs)
	if perPixel > maxPerPixel {
		t.Fatalf("filter allocates %.1f B/px, want ≤ %d", perPixel, maxPerPixel)
	}
}
