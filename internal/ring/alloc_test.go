package ring

import "testing"

// TestAllReduceAllocsFlat: an in-process reduce allocates its links and
// goroutines once per call and takes its send buffers from a pool, so
// the allocation count does not grow with the vector length or the
// number of segments. (Under -race the pool drops some buffers on
// purpose; 100 runs keep that under one allocation per call.)
func TestAllReduceAllocsFlat(t *testing.T) {
	const p = 2
	allocs := func(n int) float64 {
		vecs := fillVecs[float32](p, n)
		return testing.AllocsPerRun(100, func() {
			if err := AllReduceMeanChunked(vecs, DefaultChunk); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, one, eight := allocs(10), allocs(DefaultChunk), allocs(8*DefaultChunk)
	t.Logf("allocs per reduce: n=10 %v, 1 segment %v, 8 segments %v", small, one, eight)
	if one > small || eight > one {
		t.Fatalf("allocations grow with the vector: n=10 %v, 1 segment %v, 8 segments %v", small, one, eight)
	}
}

// BenchmarkAllReduceMeanChunked reduces a FastConfig-sized float32
// gradient (120 843 values, 8 DefaultChunk segments) over two ranks.
func BenchmarkAllReduceMeanChunked(b *testing.B) {
	vecs := fillVecs[float32](2, 120_843)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := AllReduceMeanChunked(vecs, 0); err != nil {
			b.Fatal(err)
		}
	}
}
