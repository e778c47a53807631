package serve

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"seaice/internal/raster"
	"seaice/internal/unet"
)

// ErrOverloaded reports that the request queue is full; HTTP callers
// translate it to 429 so overload degrades gracefully instead of piling
// unbounded work onto the inference pool.
var ErrOverloaded = errors.New("serve: queue full")

// ErrClosed reports a submit against a scheduler that has shut down.
var ErrClosed = errors.New("serve: scheduler closed")

// request is one tile awaiting classification.
type request struct {
	key  batchKey
	tile *raster.RGB
	// deadline is the client's absolute latency bound; zero means none.
	// Expired requests are dropped at dispatch, before compute.
	deadline time.Time
	out      chan result
}

type result struct {
	labels *raster.Labels
	err    error
}

// Scheduler coalesces concurrent tile requests into forward-pass
// micro-batches. What is admitted, who batches with whom, when a batch
// runs and what becomes of expired or crashed work is batchQueue's
// policy (batchqueue.go); Scheduler is its wall-clock driver: a mutex
// around the queue, a condition variable that wakes workers when it
// changes, and a fixed pool of worker goroutines, each owning one
// inference session per model (pre-allocated tensor buffers reused
// across batches).
//
// Workers are self-healing: a panic escaping a batch (an injected chaos
// fault or a real session bug) kills only that worker, which is
// restarted immediately; the crashed batch's requests go back to the
// front of the queue — past its bound if need be: an admitted request is
// never shed, and ErrOverloaded (HTTP 429) stays purely an admission
// verdict. Restart counts and the live-worker gauge surface through
// Stats and /healthz.
type Scheduler struct {
	cfg Config

	mu   sync.Mutex
	wake *sync.Cond  // the queue changed, or a batch's wait ran out
	q    *batchQueue // guarded by mu

	workers sync.WaitGroup
	live    atomic.Int64 // currently running workers (health gauge)

	stats *Stats
}

// NewScheduler starts the worker pool. stats may be nil.
func NewScheduler(cfg Config, stats *Stats) *Scheduler {
	if stats == nil {
		stats = &Stats{} // counters nobody reads
	}
	s := &Scheduler{cfg: cfg, q: newBatchQueue(cfg), stats: stats}
	s.wake = sync.NewCond(&s.mu)
	for w := 0; w < cfg.Workers; w++ {
		s.spawn()
	}
	return s
}

// spawn starts one worker goroutine and accounts it live.
func (s *Scheduler) spawn() {
	s.workers.Add(1)
	s.live.Add(1)
	go s.worker()
}

// QueueDepth reports the number of queued (not yet picked up) requests.
func (s *Scheduler) QueueDepth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.q.queue)
}

// LiveWorkers reports the number of currently running workers — the
// health gauge behind /healthz (a worker mid-restart dips the count
// momentarily; it recovers without intervention).
func (s *Scheduler) LiveWorkers() int { return int(s.live.Load()) }

// Submit enqueues one tile with no deadline and blocks until its
// prediction is ready. A full queue returns ErrOverloaded immediately.
func (s *Scheduler) Submit(e unet.Engine, tile *raster.RGB) (*raster.Labels, error) {
	return s.SubmitDeadline(e, tile, time.Time{})
}

// Model exposes the scheduler's service-time model (for the HTTP layer's
// Retry-After computation and /statz).
func (s *Scheduler) Model() *SvcModel { return s.q.model }

// SubmitDeadline enqueues one tile and blocks until its prediction is
// ready. Admission is deadline-aware (batchQueue.admit): a request whose
// predicted completion already exceeds its deadline is refused at
// enqueue with *InfeasibleError — never accepted only to be timed out
// later — and a full queue returns ErrOverloaded. Once admitted, a
// request is never converted back into a rejection: it either completes,
// or expires in queue and fails with ErrDeadlineExpired (dropped before
// compute).
func (s *Scheduler) SubmitDeadline(e unet.Engine, tile *raster.RGB, deadline time.Time) (*raster.Labels, error) {
	req := &request{key: batchKey{e, tile.W, tile.H}, tile: tile, deadline: deadline, out: make(chan result, 1)}
	s.mu.Lock()
	err := s.q.admit(req, time.Now())
	s.mu.Unlock()
	if err != nil {
		if err == ErrOverloaded {
			s.stats.RecordReject()
		} else if err != ErrClosed {
			s.stats.RecordDeadlineReject() // *InfeasibleError
		}
		return nil, err
	}
	s.wake.Broadcast()
	res := <-req.out
	return res.labels, res.err
}

// Close drains every admitted request and stops the workers. Safe to
// call more than once.
func (s *Scheduler) Close() {
	s.mu.Lock()
	s.q.closed = true
	s.mu.Unlock()
	s.wake.Broadcast()
	s.workers.Wait()
}

// worker runs batches until the scheduler is closed and drained. A
// panic escaping a batch is contained here: the crashed batch is
// requeued, the worker is respawned with a fresh session map, and the
// panic never reaches the process.
func (s *Scheduler) worker() {
	defer s.workers.Done()
	defer s.live.Add(-1)

	var cur []*request // dispatched and not yet answered; requeued on panic
	defer func() {
		if recover() == nil {
			return
		}
		s.stats.RecordWorkerRestart()
		s.mu.Lock()
		s.q.requeue(cur)
		s.mu.Unlock()
		s.wake.Broadcast()
		// The replacement inherits nothing: sessions are rebuilt lazily,
		// so a corrupted buffer cannot outlive the crash.
		s.spawn()
	}()

	sessions := make(map[unet.Engine]unet.Predictor)
	for {
		if cur = s.next(); cur == nil {
			return
		}
		// Injected chaos faults fire at the dispatch ordinal, before any
		// request is answered — so the restart path always sees a whole
		// batch to requeue; a seeded slow-node fault delays the batch
		// (capacity degradation, not failure).
		panicNow, slow := s.cfg.Chaos.ServeBatch()
		if panicNow {
			panic("chaos: injected inference-worker fault")
		}
		time.Sleep(slow)

		// Requests whose deadline passed while they waited are answered
		// here: expired work never reaches a forward pass.
		var expired []*request
		cur, expired = triage(cur, time.Now())
		for _, r := range expired {
			s.stats.RecordExpired()
			r.out <- result{err: ErrDeadlineExpired}
		}
		if len(cur) > 0 {
			s.run(sessions, cur)
		}
		cur = nil
	}
}

// next blocks until this worker holds a dispatched batch and returns its
// requests; nil once the scheduler is closed and the queue drained.
func (s *Scheduler) next() []*request {
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.q.lead(time.Now())
	for ; b == nil; b = s.q.lead(time.Now()) {
		if s.q.closed {
			return nil
		}
		s.wake.Wait()
	}
	reqs, wait := s.q.dispatch(b, time.Now())
	if wait > 0 {
		// One timer covers the batch's whole wait; any earlier wake-up
		// (a follower, a mismatch, Close) just asks again.
		timer := time.AfterFunc(wait, func() {
			s.mu.Lock() // not between a waiter's dispatch and its Wait
			s.wake.Broadcast()
			s.mu.Unlock()
		})
		for wait > 0 {
			s.wake.Wait()
			reqs, wait = s.q.dispatch(b, time.Now())
		}
		timer.Stop()
	}
	return reqs
}

// run executes one triaged batch on the worker's session for its model
// and delivers per-request results.
func (s *Scheduler) run(sessions map[unet.Engine]unet.Predictor, batch []*request) {
	engine := batch[0].key.engine
	sess, ok := sessions[engine]
	if !ok {
		sess = engine.NewPredictor()
		sessions[engine] = sess
	}
	tiles := make([]*raster.RGB, len(batch))
	for i, r := range batch {
		tiles[i] = r.tile
	}
	start := time.Now()
	labels, err := sess.PredictTiles(tiles)
	s.q.model.Observe(len(batch), time.Since(start))
	s.stats.RecordBatch(len(batch))
	for i, r := range batch {
		if err != nil {
			r.out <- result{err: err}
		} else {
			r.out <- result{labels: labels[i]}
		}
	}
}
