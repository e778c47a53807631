package serve

import (
	"slices"
	"time"

	"seaice/internal/unet"
)

// batchKey is what two requests must share to ride one forward pass.
type batchKey struct {
	engine unet.Engine
	w, h   int // tile shape
}

// expired is the serve plane's one deadline predicate: a request is live
// up to and including its deadline instant, and no deadline never
// expires.
func (r *request) expired(now time.Time) bool {
	return !r.deadline.IsZero() && now.After(r.deadline)
}

// batchQueue is the serve plane's queueing policy — admission, batch
// formation, deadline triage, crash requeue — as a plain data structure:
// no clock, no goroutine, no lock. Admission takes the current instant,
// so its two drivers run the same code on different clocks: Scheduler
// under a mutex with wall time and worker goroutines, LoadSim with
// simtime's virtual instants.
//
// Requests wait in one bounded FIFO, and a request's tiles enter it
// together or not at all. Batches form at pickup from what is queued
// then: an idle worker takes the head plus the requests of the head's
// key directly behind it, up to MaxBatch. Nothing waits for followers,
// and nothing overtakes a mismatched head — it leads the next batch.
type batchQueue struct {
	cfg    Config     // Workers, MaxBatch and QueueSize are read
	model  *SvcModel  // fed by the drivers after each forward pass
	queue  []*request // admitted, not yet dispatched; oldest first
	closed bool       // admits nothing more; what is queued still drains
}

func newBatchQueue(cfg Config) *batchQueue {
	return &batchQueue{cfg: cfg, model: NewSvcModel(cfg.MaxBatch)}
}

// admit is the admission verdict on one request's tiles, all or none.
// Each is judged as if those before it were already queued, in this
// order: a closed queue refuses with ErrClosed; a deadline already
// spent, or one the service-time model predicts the backlog will
// overrun, with *InfeasibleError — said now rather than discovered as a
// timeout; a full queue with ErrOverloaded. A refusal leaves the queue
// as it was. Otherwise every tile is in, and from here on each completes
// or expires: it is never turned back into a rejection.
func (q *batchQueue) admit(reqs []*request, now time.Time) error {
	if q.closed {
		return ErrClosed
	}
	for i, r := range reqs {
		depth := len(q.queue) + i
		if !r.deadline.IsZero() {
			budget := r.deadline.Sub(now)
			predicted := q.model.PredictWait(depth, q.cfg.Workers)
			if budget <= 0 || predicted > budget {
				// Retry when the excess has drained (floor 1ms so the
				// Retry-After header never rounds to zero).
				retry := max(predicted-budget, time.Millisecond)
				return &InfeasibleError{Predicted: predicted, Budget: budget, RetryAfter: retry}
			}
		}
		if depth >= q.cfg.QueueSize {
			return ErrOverloaded
		}
	}
	q.queue = append(q.queue, reqs...)
	return nil
}

// dispatch hands the idle worker calling it the head of the queue plus
// the requests of the head's key directly behind it, up to MaxBatch;
// nil when nothing is queued. The batch leaves the queue for good and
// its requests are the caller's, to triage right before compute.
func (q *batchQueue) dispatch() []*request {
	n := 0
	for n < len(q.queue) && n < q.cfg.MaxBatch && q.queue[n].key == q.queue[0].key {
		n++
	}
	if n == 0 {
		return nil
	}
	reqs := slices.Clone(q.queue[:n])
	q.queue = slices.Delete(q.queue, 0, n) // shifts: the backing array is kept
	return reqs
}

// triage splits a dispatched batch at the instant compute would start:
// expired holds the requests whose deadline passed while they waited (to
// be answered, never computed), live the rest. reqs is reused for live.
func triage(reqs []*request, now time.Time) (live, expired []*request) {
	live = reqs[:0]
	for _, r := range reqs {
		if r.expired(now) {
			expired = append(expired, r)
		} else {
			live = append(live, r)
		}
	}
	return live, expired
}

// requeue puts the unanswered requests of a batch whose worker crashed
// back at the front of the queue — ahead of everything that arrived
// after them, and exempt from the bound: an admitted request is never
// shed. Those that expire before their next dispatch are triaged then.
func (q *batchQueue) requeue(reqs []*request) {
	q.queue = slices.Concat(reqs, q.queue)
}
