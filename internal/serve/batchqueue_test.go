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

// qcfg is a two-worker queue of four with batches of up to three.
func qcfg() Config {
	return Config{Workers: 2, MaxBatch: 3, QueueSize: 4}
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
		if err := q.admit([]*request{r}, at(now)); err != nil {
			t.Fatalf("admit #%d at %v: %v", i, now, err)
		}
	}
}

// TestBatchQueueAdmission pins the admission verdict and its order:
// closed, then the deadline (spent, or infeasible by the service-time
// model), then the bound — per tile, as if the request's earlier tiles
// were already queued, and all or nothing.
func TestBatchQueueAdmission(t *testing.T) {
	const second = time.Second
	rows := []struct {
		name     string
		closed   bool
		queued   int           // requests already in the queue (bound is 4)
		tiles    int           // tiles of the request under test; 0 = 1
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
		// A request's tiles go in together or not at all.
		{name: "slice that just fits", queued: 1, tiles: 3},
		{name: "slice past the bound is refused whole", queued: 2, tiles: 3, want: "overloaded"},
		// 1s per batch of one on two workers: the first tile is predicted
		// to finish in 1s, the second (one queued ahead) in 2s.
		{name: "slice infeasible by its second tile is refused whole", tiles: 2, batchSec: second, deadline: 3 * second / 2, want: "infeasible"},
		{name: "closed refuses a slice", closed: true, queued: 1, tiles: 2, want: "closed"},
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
			reqs := make([]*request, max(row.tiles, 1))
			for i := range reqs {
				reqs[i] = qreq(16, row.deadline)
			}
			err := q.admit(reqs, at(row.now))
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
				wantDepth += len(reqs)
			}
			if len(q.queue) != wantDepth {
				t.Fatalf("queue depth %d after the verdict, want %d", len(q.queue), wantDepth)
			}
		})
	}
}

// TestBatchQueueDispatch pins what an idle worker takes at pickup. Each
// row queues a 16² request, then the arrivals, and dispatches once
// (MaxBatch 3).
func TestBatchQueueDispatch(t *testing.T) {
	rows := []struct {
		name     string
		arrivals []int // tile sizes queued behind the first 16² request
		close    bool
		wantSize int // dispatched batch size
		wantLeft int // requests still queued afterwards
	}{
		{name: "alone", wantSize: 1},
		{name: "one same-key request behind", arrivals: []int{16}, wantSize: 2},
		{name: "MaxBatch same-key requests fill one batch", arrivals: []int{16, 16}, wantSize: 3},
		{name: "a fourth same-key request does not fit", arrivals: []int{16, 16, 16}, wantSize: 3, wantLeft: 1},
		{name: "mismatched head stays queued", arrivals: []int{32}, wantSize: 1, wantLeft: 1},
		{name: "nothing overtakes a mismatched head", arrivals: []int{16, 32, 16}, wantSize: 2, wantLeft: 2},
		{name: "a closed queue still drains", arrivals: []int{16}, close: true, wantSize: 2},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			q := newBatchQueue(qcfg())
			mustAdmit(t, q, 0, qreq(16, 0))
			for _, size := range row.arrivals {
				mustAdmit(t, q, time.Millisecond, qreq(size, 0))
			}
			q.closed = row.close
			reqs := q.dispatch()
			if len(reqs) != row.wantSize || len(q.queue) != row.wantLeft {
				t.Fatalf("dispatched %d (want %d), %d queued (want %d)", len(reqs), row.wantSize, len(q.queue), row.wantLeft)
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

// TestBatchQueueFormation walks one queue through the rules that need
// more than one pickup: a request's tiles queue together and split into
// MaxBatch batches, each key's run leads its own batch in turn, and a
// crashed batch requeues at the front, past the bound, losing nothing.
func TestBatchQueueFormation(t *testing.T) {
	q := newBatchQueue(qcfg())
	if q.dispatch() != nil {
		t.Fatal("dispatch on an empty queue returned a batch")
	}
	a1, b1 := qreq(16, 0), qreq(32, 0)
	mustAdmit(t, q, 0, a1, b1)
	if got := q.dispatch(); !slices.Equal(got, []*request{a1}) {
		t.Fatalf("first pickup took %d requests, want a1 alone (b1 is another shape)", len(got))
	}
	if got := q.dispatch(); !slices.Equal(got, []*request{b1}) || len(q.queue) != 0 {
		t.Fatalf("second pickup took %d requests, want b1; depth %d", len(got), len(q.queue))
	}

	// One request of four tiles fills the queue to its bound and leaves
	// it as a full batch and a remainder.
	as := []*request{qreq(16, 0), qreq(16, 0), qreq(16, 0), qreq(16, 0)}
	if err := q.admit(as, at(time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	full := q.dispatch()
	if !slices.Equal(full, as[:3]) || !slices.Equal(q.queue, as[3:]) {
		t.Fatalf("pickup took %d of the request's 4 tiles and left %d, want 3 and 1", len(full), len(q.queue))
	}

	// Fill the queue to its bound with a third shape, then crash the
	// dispatched batch: its three requests return to the front (7 queued
	// against a bound of 4), in order, none rejected — while a new
	// arrival still gets the bound's verdict.
	var others []*request
	for i := 0; i < 3; i++ {
		others = append(others, qreq(64, 0))
	}
	mustAdmit(t, q, 2*time.Millisecond, others...)
	if err := q.admit([]*request{qreq(64, 0)}, at(2*time.Millisecond)); err != ErrOverloaded {
		t.Fatalf("fifth request against a bound of 4: %v, want ErrOverloaded", err)
	}
	q.requeue(full)
	want := slices.Concat(as, others)
	if !slices.Equal(q.queue, want) {
		t.Fatalf("after requeue the queue holds %d requests out of order or short, want the 3 crashed ones, the 4th tile, then the 3 queued", len(q.queue))
	}
	if err := q.admit([]*request{qreq(64, 0)}, at(3*time.Millisecond)); err != ErrOverloaded {
		t.Fatalf("arrival behind a requeue past the bound: %v, want ErrOverloaded", err)
	}
	for i, want := range [][]*request{as[:3], as[3:], others} {
		if got := q.dispatch(); !slices.Equal(got, want) {
			t.Fatalf("pickup %d after the requeue took %d requests, want %d", i, len(got), len(want))
		}
	}
}
