package ring

import (
	"fmt"
	"sync"
)

// RankError reports a rank that failed during (or before) a collective
// operation — the ring's failure-detection signal. Callers (the ddp
// trainer) respond by healing the rank and retrying the step, or by
// continuing elastically over the survivors. For network transports the
// failed "rank" is the peer whose connection broke, and Err carries the
// underlying I/O error (nil for in-process membership failures).
type RankError struct {
	Rank int
	Err  error
}

func (e *RankError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("ring: rank %d failed: %v", e.Rank, e.Err)
	}
	return fmt.Sprintf("ring: rank %d failed", e.Rank)
}

// Unwrap exposes the underlying transport error, when any.
func (e *RankError) Unwrap() error { return e.Err }

// Group tracks ring membership across failures. The collective below
// (AllReduceMeanChunkedGroup) reduces over the live members only,
// rebuilding the ring — and re-deriving chunk geometry — from the
// survivor count; Fail marks a member dead (replica crash, injected or
// real) and Heal re-admits it after recovery.
//
// A collective snapshots the live set when it starts and re-checks it on
// completion, so a concurrent Fail surfaces as a *RankError — the
// analogue of a hardware ring timing out on a dead peer mid-transfer.
type Group struct {
	mu    sync.Mutex
	alive []bool
	live  int
}

// NewGroup returns a group of p fully-live ranks.
func NewGroup(p int) (*Group, error) {
	if p <= 0 {
		return nil, fmt.Errorf("ring: group size %d", p)
	}
	g := &Group{alive: make([]bool, p), live: p}
	for i := range g.alive {
		g.alive[i] = true
	}
	return g, nil
}

// Size returns the full membership count (live + dead).
func (g *Group) Size() int { return len(g.alive) }

// LiveCount returns the current number of live ranks.
func (g *Group) LiveCount() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.live
}

// IsLive reports rank r's membership.
func (g *Group) IsLive(r int) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.alive[r]
}

// Live returns the live ranks in ascending order.
func (g *Group) Live() []int {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]int, 0, g.live)
	for r, a := range g.alive {
		if a {
			out = append(out, r)
		}
	}
	return out
}

// Dead returns the failed ranks in ascending order.
func (g *Group) Dead() []int {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]int, 0, len(g.alive)-g.live)
	for r, a := range g.alive {
		if !a {
			out = append(out, r)
		}
	}
	return out
}

// Fail marks rank r dead, so in-flight collectives detect the loss on
// completion. Idempotent.
func (g *Group) Fail(r int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if r < 0 || r >= len(g.alive) || !g.alive[r] {
		return
	}
	g.alive[r] = false
	g.live--
}

// Heal re-admits a recovered rank. Idempotent.
func (g *Group) Heal(r int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if r < 0 || r >= len(g.alive) || g.alive[r] {
		return
	}
	g.alive[r] = true
	g.live++
}

// snapshot returns the live set atomically.
func (g *Group) snapshot() []int {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]int, 0, g.live)
	for r, a := range g.alive {
		if a {
			out = append(out, r)
		}
	}
	return out
}

// failedSince returns the lowest member of the collective's starting
// live set that has since died, or -1.
func (g *Group) failedSince(liveAtStart []int) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, r := range liveAtStart {
		if !g.alive[r] {
			return r
		}
	}
	return -1
}

// AllReduceMeanChunkedGroup averages the live ranks' vectors in place —
// the elastic all-reduce. The ring is rebuilt over the survivors at call
// time: dead ranks are excluded (their vectors untouched) and the chunk
// geometry is re-derived from the live count, so losing a rank changes
// the communication schedule but the math stays the deterministic mean
// over exactly the live inputs. vectors is indexed by original rank and
// must cover the full group.
//
// If a member fails while the reduce is in flight (Fail from another
// goroutine — the injected or real death of a replica mid-exchange), the
// operation completes its transfers but returns *RankError naming the
// lost rank, and the caller must treat the step as aborted: with a peer
// gone mid-ring the partial sums are not trustworthy, which is exactly
// the semantics of a hardware ring timing out.
func AllReduceMeanChunkedGroup[S Scalar](g *Group, vectors [][]S, chunk int) error {
	if g == nil {
		return AllReduceMeanChunked(vectors, chunk)
	}
	if len(vectors) != g.Size() {
		return fmt.Errorf("ring: %d vectors for group of %d", len(vectors), g.Size())
	}
	live := g.snapshot()
	if len(live) == 0 {
		return &RankError{Rank: 0}
	}
	views := make([][]S, len(live))
	for i, r := range live {
		views[i] = vectors[r]
	}
	if err := AllReduceMeanChunked(views, chunk); err != nil {
		return err
	}
	if r := g.failedSince(live); r >= 0 {
		return &RankError{Rank: r}
	}
	return nil
}
