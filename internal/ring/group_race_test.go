package ring

import (
	"errors"
	"runtime"
	"sync"
	"testing"
)

// TestGroupConcurrentFailHealCollectives hammers a Group with
// simultaneous Fail/Heal churn and in-flight collectives. Run under
// -race in CI, it checks two things: no data race inside Group, and
// every collective outcome is either success or a well-formed
// *RankError — never a panic, a garbage error, or an out-of-range rank.
func TestGroupConcurrentFailHealCollectives(t *testing.T) {
	const (
		p      = 5
		n      = 257
		rounds = 50
	)
	g, err := NewGroup(p)
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var churn sync.WaitGroup

	// Churner: flips membership of ranks 1..p-1 continuously.
	churn.Add(1)
	go func() {
		defer churn.Done()
		r := 1
		for {
			select {
			case <-stop:
				return
			default:
			}
			g.Fail(r)
			g.Heal(r)
			r++
			if r == p {
				r = 1
			}
			runtime.Gosched()
		}
	}()

	// Observer: exercises the read paths concurrently with the churn.
	churn.Add(1)
	go func() {
		defer churn.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if got := g.LiveCount(); got < 1 || got > p {
				t.Errorf("live count %d out of range", got)
				return
			}
			_ = g.Live()
			_ = g.Dead()
			_ = g.IsLive(1)
			runtime.Gosched()
		}
	}()

	// Collective callers: each round runs a full-group reduce against
	// fresh vectors while membership churns.
	var coll sync.WaitGroup
	for w := 0; w < 2; w++ {
		coll.Add(1)
		go func() {
			defer coll.Done()
			for round := 0; round < rounds; round++ {
				vecs := fillVecs[float64](p, n)
				checkGroupErr(t, AllReduceMeanChunkedGroup(g, vecs, 64), p)
			}
		}()
	}

	coll.Wait()
	close(stop)
	churn.Wait()
}

func checkGroupErr(t *testing.T, err error, p int) {
	t.Helper()
	if err == nil {
		return
	}
	var re *RankError
	if !errors.As(err, &re) {
		t.Errorf("collective returned non-RankError: %v", err)
		return
	}
	if re.Rank < 0 || re.Rank >= p {
		t.Errorf("RankError names out-of-range rank %d", re.Rank)
	}
}
