package unet

import (
	"fmt"
	"testing"

	"seaice/internal/raster"
	"seaice/internal/tensor"
)

// float32Backends are the float32 kernel backends the session benchmarks
// and allocation checks run under; one the host cannot run is skipped.
var float32Backends = []string{"engine", "avx2"}

// useFloat32Backend pins the float32 kernel backend for the rest of the
// test or benchmark and restores the previous one afterwards.
func useFloat32Backend(tb testing.TB, name string) {
	tb.Helper()
	prev := tensor.Float[float32]().Name
	if err := tensor.SelectFloat[float32](name); err != nil {
		tb.Skip(err)
	}
	tb.Cleanup(func() {
		if err := tensor.SelectFloat[float32](prev); err != nil {
			tb.Fatal(err)
		}
	})
}

// servedTiles returns n random 32² tiles, the serving tile size.
func servedTiles(n int) []*raster.RGB {
	tiles := make([]*raster.RGB, n)
	for i := range tiles {
		tiles[i] = corruptTile(32, uint64(90+i))
	}
	return tiles
}

// TestSessionPredictAllocs: once its buffers and filter caches are warm, a
// float32 session allocates only what PredictTiles hands back (the label
// rasters and the prediction slice) plus a fixed handful per call — at
// most 10 allocations for one tile and 16 for four. Cached filter
// transforms (straight and transposed), GEMM-ordered up-convolution
// weights and product scratch are built once per session, not per call.
func TestSessionPredictAllocs(t *testing.T) {
	m, err := New[float32](FastConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	for _, backend := range float32Backends {
		t.Run(backend, func(t *testing.T) {
			useFloat32Backend(t, backend)
			for _, tc := range []struct{ n, limit int }{{1, 10}, {4, 16}} {
				s := NewSession(m)
				tiles := servedTiles(tc.n)
				if _, err := s.PredictTiles(tiles); err != nil {
					t.Fatal(err)
				}
				allocs := testing.AllocsPerRun(20, func() {
					if _, err := s.PredictTiles(tiles); err != nil {
						t.Fatal(err)
					}
				})
				t.Logf("%s batch %d: %.1f allocations per PredictTiles", backend, tc.n, allocs)
				if allocs > float64(tc.limit) {
					t.Errorf("%s batch %d: %.1f allocations per PredictTiles, want at most %d", backend, tc.n, allocs, tc.limit)
				}
			}
		})
	}
}

// BenchmarkSessionPredict times a warm float32 Session.PredictTiles on the
// FastConfig U-Net at the serving tile size, per float32 backend: batch 1
// is the serve-tiles cache-miss path (narrow Winograd batches run
// transposed), batch 16 a full serving batch.
func BenchmarkSessionPredict(b *testing.B) {
	m, err := New[float32](FastConfig(3))
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{1, 16} {
		for _, backend := range float32Backends {
			b.Run(fmt.Sprintf("f32/batch%d/%s", n, backend), func(b *testing.B) {
				useFloat32Backend(b, backend)
				s := NewSession(m)
				tiles := servedTiles(n)
				if _, err := s.PredictTiles(tiles); err != nil { // warm the session
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := s.PredictTiles(tiles); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.N*n)/b.Elapsed().Seconds(), "tiles/s")
			})
		}
	}
}
