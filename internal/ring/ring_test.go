package ring

import (
	"math"
	"testing"
	"testing/quick"

	"seaice/internal/noise"
)

// meanReference computes the expected all-reduce result directly.
func meanReference(vectors [][]float64) []float64 {
	n := len(vectors[0])
	out := make([]float64, n)
	for _, v := range vectors {
		for i := range v {
			out[i] += v[i]
		}
	}
	for i := range out {
		out[i] /= float64(len(vectors))
	}
	return out
}

func randVectors(seed uint64, p, n int) [][]float64 {
	rng := noise.NewRNG(seed, 1)
	out := make([][]float64, p)
	for r := range out {
		out[r] = make([]float64, n)
		for i := range out[r] {
			out[r][i] = rng.NormFloat64()
		}
	}
	return out
}

func TestAllReduceMeanMatchesReference(t *testing.T) {
	for _, tc := range []struct{ p, n int }{
		{1, 5}, {2, 8}, {3, 7}, {4, 16}, {5, 3}, {8, 1000}, {7, 13},
		{3, 1}, {4, 2}, // vector shorter than ring: some chunks are empty
	} {
		vectors := randVectors(uint64(tc.p*1000+tc.n), tc.p, tc.n)
		want := meanReference(vectors)
		if err := AllReduceMean(vectors); err != nil {
			t.Fatalf("p=%d n=%d: %v", tc.p, tc.n, err)
		}
		for r := 0; r < tc.p; r++ {
			for i := 0; i < tc.n; i++ {
				if math.Abs(vectors[r][i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
					t.Fatalf("p=%d n=%d: rank %d elem %d = %g, want %g", tc.p, tc.n, r, i, vectors[r][i], want[i])
				}
			}
		}
	}
}

// TestAllReduceMeanProperty: for arbitrary rank counts and lengths, every
// rank converges to the reference mean.
func TestAllReduceMeanProperty(t *testing.T) {
	f := func(seed uint64, pRaw, nRaw uint8) bool {
		p := int(pRaw)%9 + 1
		n := int(nRaw) % 64
		vectors := randVectors(seed, p, n)
		want := meanReference(vectors)
		if err := AllReduceMean(vectors); err != nil {
			return false
		}
		for r := 0; r < p; r++ {
			for i := 0; i < n; i++ {
				if math.Abs(vectors[r][i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestAllReduceMean(t *testing.T) {
	vectors := randVectors(11, 4, 10)
	want := meanReference(vectors)
	if err := AllReduceMean(vectors); err != nil {
		t.Fatal(err)
	}
	for r := range vectors {
		for i := range want {
			if math.Abs(vectors[r][i]-want[i]) > 1e-9 {
				t.Fatalf("rank %d elem %d = %g, want %g", r, i, vectors[r][i], want[i])
			}
		}
	}
}

func TestBroadcast(t *testing.T) {
	vectors := randVectors(33, 4, 9)
	src := append([]float64(nil), vectors[0]...)
	if err := Broadcast(vectors); err != nil {
		t.Fatal(err)
	}
	for r := range vectors {
		for i := range src {
			if vectors[r][i] != src[i] {
				t.Fatalf("rank %d not broadcast at %d", r, i)
			}
		}
	}
}

func TestAllReduceErrors(t *testing.T) {
	if err := AllReduceMean[float64](nil); err == nil {
		t.Fatal("expected error for zero ranks")
	}
	if err := AllReduceMean([][]float64{{1, 2}, {1}}); err == nil {
		t.Fatal("expected error for mismatched lengths")
	}
}
