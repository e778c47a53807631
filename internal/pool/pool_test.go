package pool

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// TestMapEqualsSerial: pool.Map must compute exactly what a serial loop
// computes, in order, for any worker count.
func TestMapEqualsSerial(t *testing.T) {
	f := func(nRaw, wRaw uint8) bool {
		n := int(nRaw) % 100
		workers := int(wRaw)%8 + 1
		p := New(workers)
		out := make([]int, n)
		err := p.Map(n, func(i int) error {
			out[i] = i * i
			return nil
		})
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			if out[i] != i*i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMapSliceOrderPreserved(t *testing.T) {
	p := New(4)
	in := make([]int, 57)
	for i := range in {
		in[i] = i
	}
	out, err := MapSlice(p, in, func(v int) (string, error) {
		return fmt.Sprintf("#%d", v), nil
	})
	if err != nil {
		t.Fatalf("map: %v", err)
	}
	for i, s := range out {
		if s != fmt.Sprintf("#%d", i) {
			t.Fatalf("out[%d] = %q", i, s)
		}
	}
}

func TestErrorPropagation(t *testing.T) {
	p := New(3)
	sentinel := errors.New("boom")
	err := p.Map(20, func(i int) error {
		if i == 7 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("got %v, want sentinel", err)
	}
}

// TestPanicContained: a panicking task must surface as an error, not
// crash the process.
func TestPanicContained(t *testing.T) {
	p := New(2)
	err := p.Map(5, func(i int) error {
		if i == 3 {
			panic("worker exploded")
		}
		return nil
	})
	if err == nil {
		t.Fatal("expected panic to become an error")
	}
}

// TestAllItemsRunOnce even with more workers than items.
func TestAllItemsRunOnce(t *testing.T) {
	p := New(16)
	var count int64
	seen := make([]int64, 5)
	err := p.Map(5, func(i int) error {
		atomic.AddInt64(&count, 1)
		atomic.AddInt64(&seen[i], 1)
		return nil
	})
	if err != nil {
		t.Fatalf("map: %v", err)
	}
	if count != 5 {
		t.Fatalf("ran %d tasks, want 5", count)
	}
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("task %d ran %d times", i, c)
		}
	}
}

func TestZeroItemsNoop(t *testing.T) {
	if err := New(4).Map(0, func(int) error { t.Fatal("should not run"); return nil }); err != nil {
		t.Fatalf("empty map: %v", err)
	}
}

func TestDefaultWorkerCount(t *testing.T) {
	if New(0).Workers() < 1 {
		t.Fatal("default pool has no workers")
	}
	if New(-3).Workers() < 1 {
		t.Fatal("negative request has no workers")
	}
	if New(5).Workers() != 5 {
		t.Fatal("explicit worker count ignored")
	}
}

func TestMapSliceErrorReturnsNil(t *testing.T) {
	p := New(2)
	_, err := MapSlice(p, []int{1, 2, 3}, func(v int) (int, error) {
		if v == 2 {
			return 0, errors.New("bad item")
		}
		return v, nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
}

// TestSplitMatchesMapRanges: Split enumerates, in order, exactly the
// chunks MapRanges runs, for any item count, grain and worker count —
// callers size shared state from it before they fan out.
func TestSplitMatchesMapRanges(t *testing.T) {
	f := func(nRaw, gRaw, wRaw uint8) bool {
		n, grain, workers := int(nRaw)%70, int(gRaw)%9, int(wRaw)%6+1
		p := New(workers)
		ran := make(map[[2]int]bool)
		var mu sync.Mutex
		if err := p.MapRanges(n, grain, func(lo, hi int) error {
			mu.Lock()
			defer mu.Unlock()
			ran[[2]int{lo, hi}] = true
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		next := 0
		ok := true
		p.Split(n, grain, func(lo, hi int) {
			ok = ok && lo == next && hi > lo && ran[[2]int{lo, hi}]
			delete(ran, [2]int{lo, hi})
			next = hi
		})
		return ok && next == n && len(ran) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
