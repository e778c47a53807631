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

// batch is a micro-batch between pickup and dispatch: the leader an idle
// worker took from the head of the queue plus the followers that joined
// since. The worker that called lead holds it until dispatch releases it.
type batch struct {
	reqs []*request
	due  time.Time // pickup + BatchWait: dispatched no later than this
}

// batchQueue is the serve plane's queueing policy — admission, batch
// formation, deadline triage, crash requeue — as a plain data structure:
// no clock, no goroutine, no lock. Methods take the current instant, so
// its two drivers run the same code on different clocks: Scheduler under
// a mutex with wall time and worker goroutines, LoadSim with simtime's
// virtual instants.
//
// Requests wait in one bounded FIFO. An idle worker makes the head a
// batch leader (lead); until pickup + BatchWait, arrivals of the
// leader's key join that batch instead of the queue — oldest open batch
// first, up to MaxBatch. A request no open batch can take stays queued,
// in order, for the next idle worker, and ends the open batches' wait:
// no worker sits out BatchWait over queued work.
type batchQueue struct {
	cfg     Config     // Workers, MaxBatch, QueueSize and BatchWait are read
	model   *SvcModel  // fed by the drivers after each forward pass
	queue   []*request // admitted, in no batch yet; oldest first
	forming []*batch   // held by workers, not yet dispatched; oldest first
	closed  bool       // admits nothing more; what is queued still drains
}

func newBatchQueue(cfg Config) *batchQueue {
	return &batchQueue{cfg: cfg, model: NewSvcModel(cfg.MaxBatch)}
}

// admit is the admission verdict, in this order: a closed queue refuses
// with ErrClosed; a deadline already spent, or one the service-time
// model predicts the backlog will overrun, with *InfeasibleError — said
// now rather than discovered as a timeout; a full queue with
// ErrOverloaded. Otherwise r is in, and from here on it completes or
// expires: it is never turned back into a rejection.
func (q *batchQueue) admit(r *request, now time.Time) error {
	if q.closed {
		return ErrClosed
	}
	if !r.deadline.IsZero() {
		budget := r.deadline.Sub(now)
		predicted := q.model.PredictWait(len(q.queue), q.cfg.Workers)
		if budget <= 0 || predicted > budget {
			// Retry when the excess has drained (floor 1ms so the
			// Retry-After header never rounds to zero).
			retry := max(predicted-budget, time.Millisecond)
			return &InfeasibleError{Predicted: predicted, Budget: budget, RetryAfter: retry}
		}
	}
	if len(q.queue) >= q.cfg.QueueSize {
		return ErrOverloaded
	}
	q.queue = append(q.queue, r)
	q.fill()
	return nil
}

// lead makes the head of the queue the leader of a new batch, held by
// the idle worker calling it; nil when nothing is queued. BatchWait runs
// from this pickup, not from the leader's arrival.
func (q *batchQueue) lead(now time.Time) *batch {
	if len(q.queue) == 0 {
		return nil
	}
	b := &batch{reqs: make([]*request, 0, q.cfg.MaxBatch), due: now.Add(q.cfg.BatchWait)}
	b.reqs = append(b.reqs, q.pop())
	q.forming = append(q.forming, b)
	q.fill()
	return b
}

func (q *batchQueue) pop() *request {
	r := q.queue[0]
	q.queue = slices.Delete(q.queue, 0, 1) // shifts: the backing array is kept
	return r
}

func (q *batchQueue) room(b *batch) bool { return len(b.reqs) < q.cfg.MaxBatch }

// fill moves requests from the head of the queue into open batches: the
// head joins the oldest batch of its key that has room, and when there
// is none it stays — with everything behind it — in arrival order.
func (q *batchQueue) fill() {
	for len(q.queue) > 0 {
		head := q.queue[0].key
		i := slices.IndexFunc(q.forming, func(b *batch) bool { return b.reqs[0].key == head && q.room(b) })
		if i < 0 {
			return
		}
		q.forming[i].reqs = append(q.forming[i].reqs, q.pop())
	}
}

// dispatch is b's holder asking, at instant now, whether to run it.
// While b may still gain followers it stays open, and wait says for how
// long at most. b is due when it is full, at pickup + BatchWait, when a
// request it cannot take is queued, or when the queue has closed; it
// then leaves the queue for good and its requests are the caller's, to
// triage right before compute.
func (q *batchQueue) dispatch(b *batch, now time.Time) (reqs []*request, wait time.Duration) {
	if wait = b.due.Sub(now); wait > 0 && q.room(b) && len(q.queue) == 0 && !q.closed {
		return nil, wait
	}
	q.forming = slices.DeleteFunc(q.forming, func(o *batch) bool { return o == b })
	return b.reqs, 0
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
	q.fill()
}
