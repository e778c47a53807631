package ring

import (
	"fmt"
	"sync"
)

// Collective is the per-rank view of the ring collectives: each rank —
// a goroutine in one process, or one process of a real cluster — holds
// only its own vector and calls the operations in lockstep with its
// peers. Two implementations exist behind this one interface, so the
// distributed trainer (ddp.Trainer) is transport-agnostic:
//
//   - Local (this package): ranks are goroutines rendezvousing in
//     memory over a membership Group; the operations delegate to
//     AllReduceMeanChunkedGroup / Broadcast, so results are
//     bit-identical to the shared-memory ring.
//   - transport.Collective: ranks are processes connected by the
//     length-prefixed TCP ring of internal/transport, each running
//     AllReduceMeanRank over its socket link — the schedule the
//     shared-memory ring runs over channels, so bit-identical to Local
//     by construction (parity-tested).
//
// Failures surface as *RankError naming the lost peer; the caller
// rewinds its step state, calls Reestablish, and retries — exactly the
// recovery contract of the in-process membership ring (Group).
type Collective[S Scalar] interface {
	// Rank is this member's position in [0, World).
	Rank() int
	// World is the full member count.
	World() int
	// StepStart marks a global-step boundary; transports deliver
	// boundary-scheduled network faults (partition, reconnect) here.
	StepStart(step int)
	// AllReduceMean averages the ranks' vectors in place with the
	// chunked ring schedule (chunk <= 0 selects DefaultChunk). Every
	// rank must call it with an equal-length vector.
	AllReduceMean(vec []S, chunk int) error
	// Broadcast copies rank 0's vector to every rank.
	Broadcast(vec []S) error
	// Commit is the end-of-step agreement barrier: it succeeds only if
	// every rank completed step's collectives, so either all ranks
	// commit an update or none do (the callers' retry keeps them
	// bit-synchronized).
	Commit(step int) error
	// Reestablish rebuilds the member links after a failure and agrees
	// on the step to retry from: the returned step is the minimum the
	// members advertised (a rank that committed ahead rolls back to it).
	Reestablish(step int) (int, error)
	// Close releases the member's resources.
	Close() error
}

// localOp names the collective a localRound gathers; mixing operations
// in one rendezvous is a lockstep violation and fails fast.
type localOp string

const (
	opReduce    localOp = "all-reduce-mean"
	opBroadcast localOp = "broadcast"
	opBarrier   localOp = "barrier"
)

// localRound is one rendezvous of the live ranks: vectors are gathered,
// the shared-memory collective runs once, and every participant
// observes the same error.
type localRound[S Scalar] struct {
	op    localOp
	chunk int
	vecs  [][]S
	n     int
	done  chan struct{}
	err   error
}

// localHub is the shared rendezvous state behind a set of Local ranks.
type localHub[S Scalar] struct {
	group *Group
	mu    sync.Mutex
	cur   *localRound[S]
}

// Local is the in-process Collective: p goroutines sharing a hub. It
// exists so per-rank callers (ddp.Trainer, the transport parity tests)
// can run against shared memory with results bit-identical to
// AllReduceMeanChunked, making the network transport a drop-in swap.
type Local[S Scalar] struct {
	hub  *localHub[S]
	rank int
}

// NewLocal returns p connected in-process ranks. Every live rank must
// call each collective for any to return (the same lockstep contract a
// socket transport imposes). Liveness is the membership of group — one
// of size p may be passed in by a caller that fails and heals ranks
// itself (the ddp trainer); otherwise the ranks get a private one. The
// owner may change membership only between collectives: nothing wakes
// ranks already waiting on one that then dies.
func NewLocal[S Scalar](p int, group ...*Group) ([]*Local[S], error) {
	if p <= 0 {
		return nil, fmt.Errorf("ring: local collective size %d", p)
	}
	hub := &localHub[S]{}
	switch {
	case len(group) == 0:
		hub.group, _ = NewGroup(p) // p > 0: cannot fail
	case len(group) == 1 && group[0] != nil && group[0].Size() == p:
		hub.group = group[0]
	default:
		return nil, fmt.Errorf("ring: local collective of %d needs one membership group of that size", p)
	}
	out := make([]*Local[S], p)
	for r := range out {
		out[r] = &Local[S]{hub: hub, rank: r}
	}
	return out, nil
}

// Rank implements Collective.
func (l *Local[S]) Rank() int { return l.rank }

// World implements Collective.
func (l *Local[S]) World() int { return l.hub.group.Size() }

// StepStart implements Collective; in-process ranks have no links to
// fault, so it is a no-op.
func (l *Local[S]) StepStart(step int) {}

// rendezvous joins (or opens) the current round for op, deposits vec,
// and blocks until every live rank arrived and the round's collective
// ran. A dead rank fails fast with *RankError instead of joining.
func (l *Local[S]) rendezvous(op localOp, chunk int, vec []S) error {
	h := l.hub
	h.mu.Lock()
	if !h.group.IsLive(l.rank) {
		h.mu.Unlock()
		return &RankError{Rank: l.rank}
	}
	need := h.group.LiveCount()
	if need == 1 {
		// A lone rank: every collective is the identity (the mean over
		// one vector leaves it unchanged).
		h.mu.Unlock()
		return nil
	}
	if h.cur == nil {
		h.cur = &localRound[S]{op: op, chunk: chunk, vecs: make([][]S, h.group.Size()), done: make(chan struct{})}
	}
	round := h.cur
	if round.op != op {
		h.mu.Unlock()
		return fmt.Errorf("ring: rank %d called %s while a %s round is open", l.rank, op, round.op)
	}
	round.vecs[l.rank] = vec
	round.n++
	if round.n == need {
		// Last arriver executes the shared-memory collective for all.
		switch op {
		case opReduce:
			round.err = AllReduceMeanChunkedGroup(h.group, round.vecs, round.chunk)
		case opBroadcast:
			live := h.group.Live()
			views := make([][]S, len(live))
			for i, r := range live {
				views[i] = round.vecs[r]
			}
			round.err = Broadcast(views)
		case opBarrier:
			// Rendezvous itself is the barrier.
		}
		h.cur = nil
		close(round.done)
		h.mu.Unlock()
		return round.err
	}
	h.mu.Unlock()
	<-round.done
	return round.err
}

// AllReduceMean implements Collective via the shared-memory chunked
// ring; all ranks' vectors must share one length.
func (l *Local[S]) AllReduceMean(vec []S, chunk int) error {
	return l.rendezvous(opReduce, chunk, vec)
}

// Broadcast implements Collective: the lowest live rank's vector (rank
// 0's, on a full ring) is copied to all.
func (l *Local[S]) Broadcast(vec []S) error {
	return l.rendezvous(opBroadcast, 0, vec)
}

// Commit implements Collective; in-process ranks share a failure domain
// so the rendezvous alone is the agreement.
func (l *Local[S]) Commit(step int) error {
	return l.rendezvous(opBarrier, 0, nil)
}

// Reestablish implements Collective: in-process links cannot break, so
// it degenerates to a barrier that echoes the caller's step.
func (l *Local[S]) Reestablish(step int) (int, error) {
	if err := l.rendezvous(opBarrier, 0, nil); err != nil {
		return 0, err
	}
	return step, nil
}

// Close implements Collective.
func (l *Local[S]) Close() error { return nil }
