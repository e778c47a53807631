package ring

import (
	"math"
	"testing"
)

// TestAllReduceMeanChunkedMatchesMean: the segmented reduce must
// produce the same means as the single-shot reduce (exactly, for these
// small rank counts) and leave all ranks identical.
func TestAllReduceMeanChunkedMatchesMean(t *testing.T) {
	for _, tc := range []struct{ p, n, chunk int }{
		{1, 100, 16},
		{2, 5, 16},   // n < chunk: falls back to one reduce
		{3, 100, 16}, // uneven tail segment
		{4, 1 << 12, 256},
		{5, 997, 64}, // prime length
	} {
		ref := make([][]float64, tc.p)
		got := make([][]float64, tc.p)
		for r := 0; r < tc.p; r++ {
			ref[r] = make([]float64, tc.n)
			got[r] = make([]float64, tc.n)
			for i := range ref[r] {
				v := float64(r*31+i%17) * 0.25
				ref[r][i], got[r][i] = v, v
			}
		}
		if err := AllReduceMean(ref); err != nil {
			t.Fatalf("p=%d: mean: %v", tc.p, err)
		}
		if err := AllReduceMeanChunked(got, tc.chunk); err != nil {
			t.Fatalf("p=%d: chunked: %v", tc.p, err)
		}
		for r := 0; r < tc.p; r++ {
			for i := range got[r] {
				if math.Abs(got[r][i]-ref[r][i]) > 1e-12 {
					t.Fatalf("p=%d n=%d chunk=%d: rank %d elem %d = %g, want %g",
						tc.p, tc.n, tc.chunk, r, i, got[r][i], ref[r][i])
				}
				if got[r][i] != got[0][i] {
					t.Fatalf("p=%d: rank %d diverged from rank 0 at %d", tc.p, r, i)
				}
			}
		}
	}
}

// TestAllReduceMeanChunkedRejectsMismatch mirrors the length validation of
// the unchunked entry points.
func TestAllReduceMeanChunkedRejectsMismatch(t *testing.T) {
	if err := AllReduceMeanChunked[float64](nil, 8); err == nil {
		t.Fatalf("empty rank set accepted")
	}
	if err := AllReduceMeanChunked([][]float64{make([]float64, 4), make([]float64, 5)}, 2); err == nil {
		t.Fatalf("mismatched lengths accepted")
	}
}
