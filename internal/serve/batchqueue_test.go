package serve

import (
	"errors"
	"slices"
	"testing"
	"time"
)

// The batchQueue tests run on explicit instants: t0 plus an offset, no
// clock and no sleep anywhere.
var t0 = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func at(d time.Duration) time.Time { return t0.Add(d) }

// qcfg is a two-worker queue of four with 2ms batches of up to three.
func qcfg() Config {
	return Config{Workers: 2, MaxBatch: 3, QueueSize: 4, BatchWait: 2 * time.Millisecond}
}

// qreq is a request of tile shape size×size (the batch key the tests
// vary) due at t0+deadline; a zero deadline means none.
func qreq(size int, deadline time.Duration) *request {
	r := &request{key: batchKey{w: size, h: size}}
	if deadline != 0 {
		r.deadline = at(deadline)
	}
	return r
}

func mustAdmit(t *testing.T, q *batchQueue, now time.Duration, reqs ...*request) {
	t.Helper()
	for i, r := range reqs {
		if err := q.admit(r, at(now)); err != nil {
			t.Fatalf("admit #%d at %v: %v", i, now, err)
		}
	}
}

// TestBatchQueueAdmission pins the admission verdict and its order:
// closed, then the deadline (spent, or infeasible by the service-time
// model), then the bound.
func TestBatchQueueAdmission(t *testing.T) {
	const second = time.Second
	rows := []struct {
		name     string
		closed   bool
		queued   int           // requests already in the queue (bound is 4)
		batchSec time.Duration // service time the model has observed; 0 = none
		deadline time.Duration // of the request under test, from t0; 0 = none
		now      time.Duration
		want     string // "", "closed", "overloaded", "infeasible"
	}{
		{name: "room, no deadline", queued: 3},
		{name: "room, feasible deadline", queued: 3, batchSec: second, deadline: 10 * second},
		{name: "no observations admit any live deadline", queued: 3, deadline: time.Nanosecond},
		{name: "closed", closed: true, want: "closed"},
		{name: "closed beats a spent deadline and a full queue", closed: true, queued: 4, deadline: second, now: 2 * second, want: "closed"},
		{name: "zero budget", deadline: second, now: second, want: "infeasible"},
		{name: "negative budget", deadline: second, now: 2 * second, want: "infeasible"},
		{name: "infeasible by prediction", batchSec: second, deadline: second / 2, want: "infeasible"},
		{name: "full", queued: 4, want: "overloaded"},
		{name: "full with a feasible deadline", queued: 4, batchSec: second, deadline: 60 * second, want: "overloaded"},
		// The row that tells the scheduler's order from the old
		// simulator's (bound first): both verdicts apply, the deadline's
		// wins.
		{name: "full and infeasible", queued: 4, batchSec: second, deadline: second / 2, want: "infeasible"},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			q := newBatchQueue(qcfg())
			for i := 0; i < row.queued; i++ {
				mustAdmit(t, q, 0, qreq(16, 0))
			}
			if row.batchSec > 0 {
				q.model.Observe(1, row.batchSec)
			}
			q.closed = row.closed
			err := q.admit(qreq(16, row.deadline), at(row.now))
			var infeasible *InfeasibleError
			got := ""
			switch {
			case err == ErrClosed:
				got = "closed"
			case err == ErrOverloaded:
				got = "overloaded"
			case errors.As(err, &infeasible):
				got = "infeasible"
				if infeasible.RetryAfter < time.Millisecond || infeasible.Budget != row.deadline-row.now {
					t.Errorf("infeasible verdict %+v: want budget %v and RetryAfter ≥ 1ms", infeasible, row.deadline-row.now)
				}
			case err != nil:
				t.Fatalf("unexpected error %v", err)
			}
			if got != row.want {
				t.Fatalf("verdict %q (%v), want %q", got, err, row.want)
			}
			wantDepth := row.queued
			if err == nil {
				wantDepth++
			}
			if len(q.queue) != wantDepth {
				t.Fatalf("queue depth %d after the verdict, want %d", len(q.queue), wantDepth)
			}
		})
	}
}

// TestBatchQueueDispatch pins when a held batch is due. Each row leads a
// batch at t0 (BatchWait 2ms, MaxBatch 3), lets more requests arrive at
// t0+1ms, and asks for dispatch at `ask`.
func TestBatchQueueDispatch(t *testing.T) {
	const wait = 2 * time.Millisecond
	rows := []struct {
		name     string
		arrivals []int // tile sizes admitted at t0+1ms; the leader is 16
		close    bool
		ask      time.Duration
		wantWait time.Duration // > 0: still open
		wantSize int           // dispatched batch size
		wantLeft int           // requests still queued afterwards
	}{
		{name: "alone, 1ns early", ask: wait - 1, wantWait: 1},
		{name: "alone, at pickup+BatchWait", ask: wait, wantSize: 1},
		{name: "alone, late", ask: 5 * wait, wantSize: 1},
		{name: "one follower, still waiting", arrivals: []int{16}, ask: wait / 2, wantWait: wait / 2},
		{name: "MaxBatch-th follower dispatches early", arrivals: []int{16, 16}, ask: wait / 2, wantSize: 3},
		{name: "a fourth same-key request does not fit", arrivals: []int{16, 16, 16}, ask: wait / 2, wantSize: 3, wantLeft: 1},
		{name: "mismatched head stays queued and ends the wait", arrivals: []int{32}, ask: wait / 2, wantSize: 1, wantLeft: 1},
		{name: "nothing overtakes a mismatched head", arrivals: []int{16, 32, 16}, ask: wait / 2, wantSize: 2, wantLeft: 2},
		{name: "close ends the wait", close: true, ask: wait / 2, wantSize: 1},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			q := newBatchQueue(qcfg())
			mustAdmit(t, q, 0, qreq(16, 0))
			b := q.lead(at(0))
			if b == nil || len(q.queue) != 0 || len(q.forming) != 1 {
				t.Fatalf("lead: batch %v, %d queued, %d forming", b, len(q.queue), len(q.forming))
			}
			for _, size := range row.arrivals {
				mustAdmit(t, q, time.Millisecond, qreq(size, 0))
			}
			q.closed = row.close
			reqs, gotWait := q.dispatch(b, at(row.ask))
			if gotWait != row.wantWait {
				t.Fatalf("wait %v, want %v", gotWait, row.wantWait)
			}
			if row.wantWait > 0 {
				if reqs != nil || len(q.forming) != 1 {
					t.Fatalf("open batch handed over %d requests (%d forming)", len(reqs), len(q.forming))
				}
				return
			}
			if len(reqs) != row.wantSize || len(q.forming) != 0 || len(q.queue) != row.wantLeft {
				t.Fatalf("dispatched %d (want %d), %d forming (want 0), %d queued (want %d)",
					len(reqs), row.wantSize, len(q.forming), len(q.queue), row.wantLeft)
			}
			for _, r := range reqs {
				if r.key != reqs[0].key {
					t.Fatal("mixed keys in one batch")
				}
			}
		})
	}
}

// TestBatchQueueTriage pins the expiry predicate at dispatch: the
// deadline instant itself is live (time.Time.After), 1ns later is not.
func TestBatchQueueTriage(t *testing.T) {
	const d = 50 * time.Millisecond
	rows := []struct {
		name     string
		deadline time.Duration
		now      time.Duration
		expired  bool
	}{
		{"no deadline", 0, time.Hour, false},
		{"before", d, d - 1, false},
		{"now == deadline is live", d, d, false},
		{"now > deadline is expired", d, d + 1, true},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			r, keep := qreq(16, row.deadline), qreq(16, 0)
			wantLive, wantExpired := []*request{keep, r}, []*request(nil)
			if row.expired {
				wantLive, wantExpired = []*request{keep}, []*request{r}
			}
			live, expired := triage([]*request{keep, r}, at(row.now))
			if !slices.Equal(live, wantLive) || !slices.Equal(expired, wantExpired) {
				t.Fatalf("triage %v past the deadline: %d live, %d expired", row.now-row.deadline, len(live), len(expired))
			}
		})
	}
}

// TestBatchQueueFormation walks one queue through the formation rules
// that need more than one batch: followers join the oldest open batch of
// their key, QueueDepth counts queued but not forming requests, and a
// crashed batch requeues at the front, past the bound, losing nothing.
func TestBatchQueueFormation(t *testing.T) {
	q := newBatchQueue(qcfg())
	a1, b1 := qreq(16, 0), qreq(32, 0)
	mustAdmit(t, q, 0, a1, b1)
	ba := q.lead(at(0))                      // worker 1 leads a1; b1 (another shape) stays queued
	bb := q.lead(at(100 * time.Microsecond)) // worker 2 leads b1
	if q.lead(at(time.Millisecond)) != nil {
		t.Fatal("lead on an empty queue returned a batch")
	}
	a2, b2, a3 := qreq(16, 0), qreq(32, 0), qreq(16, 0)
	mustAdmit(t, q, time.Millisecond, a2, b2, a3)
	if len(q.queue) != 0 {
		t.Fatalf("depth %d with two open batches that had room: followers must join, not queue", len(q.queue))
	}
	if !slices.Equal(ba.reqs, []*request{a1, a2, a3}) || !slices.Equal(bb.reqs, []*request{b1, b2}) {
		t.Fatalf("followers joined the wrong batches: %d in the 16² batch, %d in the 32² one", len(ba.reqs), len(bb.reqs))
	}

	// A second 16² batch opens behind the first once that one is full:
	// later arrivals join the oldest batch of their key that has room.
	a4, a5 := qreq(16, 0), qreq(16, 0)
	mustAdmit(t, q, time.Millisecond, a4) // ba is full, no idle worker yet: a4 queues
	if len(q.queue) != 1 {
		t.Fatalf("depth %d, want 1 (a4 behind a full batch)", len(q.queue))
	}
	full, wait := q.dispatch(ba, at(time.Millisecond))
	if wait != 0 || len(full) != 3 {
		t.Fatalf("full batch not dispatched: %d requests, wait %v", len(full), wait)
	}
	bc := q.lead(at(1500 * time.Microsecond)) // worker 1, idle again, leads a4
	mustAdmit(t, q, 1600*time.Microsecond, a5)
	if !slices.Equal(bc.reqs, []*request{a4, a5}) || len(q.queue) != 0 {
		t.Fatalf("a5 did not join a4's batch: %d in it, depth %d", len(bc.reqs), len(q.queue))
	}

	// Fill the queue to its bound with a third shape nobody is batching,
	// then crash the dispatched batch: its three requests return to the
	// front (7 queued against a bound of 4), in order, none rejected —
	// while a new arrival still gets the bound's verdict.
	var others []*request
	for i := 0; i < 4; i++ {
		others = append(others, qreq(64, 0))
	}
	mustAdmit(t, q, 1700*time.Microsecond, others...)
	if err := q.admit(qreq(64, 0), at(1700*time.Microsecond)); err != ErrOverloaded {
		t.Fatalf("fifth request against a bound of 4: %v, want ErrOverloaded", err)
	}
	q.dispatch(bb, at(1800*time.Microsecond)) // sealed by the queued 64² head; worker 2 runs it
	q.dispatch(bc, at(1800*time.Microsecond)) // likewise worker 1
	q.requeue(full)
	want := append([]*request{a1, a2, a3}, others...)
	if !slices.Equal(q.queue, want) {
		t.Fatalf("after requeue the queue holds %d requests out of order or short, want the 3 crashed ones then the 4 queued", len(q.queue))
	}
	if err := q.admit(qreq(64, 0), at(1900*time.Microsecond)); err != ErrOverloaded {
		t.Fatalf("arrival behind a requeue past the bound: %v, want ErrOverloaded", err)
	}
	bd := q.lead(at(2 * time.Millisecond))
	if !slices.Equal(bd.reqs, []*request{a1, a2, a3}) || len(q.queue) != 4 {
		t.Fatalf("the requeued batch did not re-form whole: %d in it, depth %d", len(bd.reqs), len(q.queue))
	}
}
