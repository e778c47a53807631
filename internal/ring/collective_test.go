package ring

import (
	"errors"
	"math"
	"reflect"
	"sync"
	"testing"
)

// fillVecs builds p deterministic, distinct vectors of length n.
func fillVecs[S Scalar](p, n int) [][]S {
	vecs := make([][]S, p)
	for r := range vecs {
		vecs[r] = make([]S, n)
		for i := range vecs[r] {
			vecs[r][i] = S(math.Sin(float64(r*1000+i)) * float64(r+1))
		}
	}
	return vecs
}

func cloneVecs[S Scalar](vecs [][]S) [][]S {
	out := make([][]S, len(vecs))
	for r := range vecs {
		out[r] = append([]S(nil), vecs[r]...)
	}
	return out
}

// runLocal drives one collective call on every rank concurrently.
func runLocal[S Scalar](t *testing.T, ranks []*Local[S], call func(l *Local[S]) error) {
	t.Helper()
	errs := make([]error, len(ranks))
	var wg sync.WaitGroup
	for r, l := range ranks {
		wg.Add(1)
		go func(r int, l *Local[S]) {
			defer wg.Done()
			errs[r] = call(l)
		}(r, l)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}

// TestLocalCollectiveParity asserts the per-rank Local collective is
// bit-identical to calling the shared-memory collectives directly — the
// baseline every transport implementation is then compared against.
func TestLocalCollectiveParity(t *testing.T) {
	testLocalParity[float64](t)
	testLocalParity[float32](t)
}

func testLocalParity[S Scalar](t *testing.T) {
	t.Helper()
	const p, n, chunk = 3, 1009, 128

	want := fillVecs[S](p, n)
	got := cloneVecs(want)
	if err := AllReduceMeanChunked(want, chunk); err != nil {
		t.Fatal(err)
	}

	ranks, err := NewLocal[S](p)
	if err != nil {
		t.Fatal(err)
	}
	runLocal(t, ranks, func(l *Local[S]) error {
		l.StepStart(0)
		return l.AllReduceMean(got[l.Rank()], chunk)
	})
	for r := range want {
		for i := range want[r] {
			if want[r][i] != got[r][i] {
				t.Fatalf("%s reduce: rank %d idx %d: %v != %v",
					precision[S](), r, i, got[r][i], want[r][i])
			}
		}
	}

	// Broadcast: rank 0's vector must land bit-exactly on every rank.
	bvecs := fillVecs[S](p, n)
	src := append([]S(nil), bvecs[0]...)
	runLocal(t, ranks, func(l *Local[S]) error {
		return l.Broadcast(bvecs[l.Rank()])
	})
	for r := range bvecs {
		for i := range src {
			if bvecs[r][i] != src[i] {
				t.Fatalf("%s broadcast: rank %d idx %d differs", precision[S](), r, i)
			}
		}
	}

	// Commit and Reestablish are plain barriers in process.
	runLocal(t, ranks, func(l *Local[S]) error { return l.Commit(7) })
	runLocal(t, ranks, func(l *Local[S]) error {
		step, err := l.Reestablish(7)
		if err == nil && step != 7 {
			t.Errorf("reestablish returned step %d", step)
		}
		return err
	})
}

func precision[S Scalar]() string {
	var z S
	if _, ok := any(z).(float32); ok {
		return "float32"
	}
	return "float64"
}

// TestLocalSingleRank checks the p=1 degenerate case is the identity.
func TestLocalSingleRank(t *testing.T) {
	ranks, err := NewLocal[float64](1)
	if err != nil {
		t.Fatal(err)
	}
	l := ranks[0]
	vec := []float64{1, 2, 3}
	if err := l.AllReduceMean(vec, 0); err != nil {
		t.Fatal(err)
	}
	if vec[0] != 1 || vec[1] != 2 || vec[2] != 3 {
		t.Fatalf("p=1 all-reduce changed the vector: %v", vec)
	}
	if err := l.Commit(0); err != nil {
		t.Fatal(err)
	}
}

// TestLocalSkipsDead asserts Local runs its collectives over the live
// members of a shared group: survivors reduce to the mean over exactly
// their own inputs (bit-identical to AllReduceMeanChunkedGroup),
// broadcast sources from the lowest live rank, a dead rank's vector is
// left untouched and its own calls fail fast with *RankError — and a
// healed rank rejoins.
func TestLocalSkipsDead(t *testing.T) {
	const p, n, chunk = 4, 300, 64
	g, err := NewGroup(p)
	if err != nil {
		t.Fatal(err)
	}
	ranks, err := NewLocal[float64](p, g)
	if err != nil {
		t.Fatal(err)
	}
	g.Fail(0)
	survivors := ranks[1:]

	want := fillVecs[float64](p, n)
	got := cloneVecs(want)
	if err := AllReduceMeanChunkedGroup(g, want, chunk); err != nil {
		t.Fatal(err)
	}
	runLocal(t, survivors, func(l *Local[float64]) error { return l.AllReduceMean(got[l.Rank()], chunk) })
	if !reflect.DeepEqual(got, want) {
		t.Fatal("survivor reduce differs from AllReduceMeanChunkedGroup")
	}
	var re *RankError
	if err := ranks[0].AllReduceMean(got[0], chunk); !errors.As(err, &re) || re.Rank != 0 {
		t.Fatalf("dead rank's reduce returned %v, want RankError naming rank 0", err)
	}

	bvecs := fillVecs[float64](p, n)
	dead, src := cloneVecs(bvecs)[0], cloneVecs(bvecs)[1]
	runLocal(t, survivors, func(l *Local[float64]) error { return l.Broadcast(bvecs[l.Rank()]) })
	if !reflect.DeepEqual(bvecs, [][]float64{dead, src, src, src}) {
		t.Fatal("degraded broadcast did not copy rank 1's vector to exactly the survivors")
	}

	g.Heal(0)
	runLocal(t, ranks, func(l *Local[float64]) error { return l.Commit(1) })

	if _, err := NewLocal[float64](p+1, g); err == nil {
		t.Fatal("NewLocal accepted a membership group of the wrong size")
	}
}
