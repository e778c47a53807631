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
	i        int           // position among the tiles of its submit
	out      chan<- result // shared by the tiles of its submit
}

type result struct {
	i      int
	labels *raster.Labels
	err    error
}

// Scheduler coalesces tile requests into forward-pass micro-batches.
// What is admitted, who batches with whom and what becomes of expired or
// crashed work is batchQueue's policy (batchqueue.go); Scheduler is its
// wall-clock driver: a mutex around the queue, a condition variable that
// wakes idle workers when work arrives, and a fixed pool of worker
// goroutines, each owning one inference session per model
// (pre-allocated tensor buffers reused across batches).
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
	wake *sync.Cond  // work was queued, or the queue closed
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

// Model exposes the scheduler's service-time model (for the HTTP layer's
// Retry-After computation and /statz).
func (s *Scheduler) Model() *SvcModel { return s.q.model }

// SubmitTiles enqueues one request's tiles as a unit and blocks until
// every one has been answered. Admission is all-or-nothing and
// deadline-aware (batchQueue.admit): tiles the service-time model
// predicts cannot finish by the deadline are refused at enqueue with
// *InfeasibleError — never accepted only to be timed out later — and
// tiles that do not fit the queue with ErrOverloaded; either way none of
// them is queued, and the refusal counts once. Once admitted, a tile is
// never converted back into a rejection: it either completes, or expires
// in queue and fails the call with ErrDeadlineExpired (dropped before
// compute).
func (s *Scheduler) SubmitTiles(e unet.Engine, tiles []*raster.RGB, deadline time.Time) ([]*raster.Labels, error) {
	out := make(chan result, len(tiles))
	slab, reqs := make([]request, len(tiles)), make([]*request, len(tiles))
	for i, tile := range tiles {
		slab[i] = request{key: batchKey{e, tile.W, tile.H}, tile: tile, deadline: deadline, i: i, out: out}
		reqs[i] = &slab[i]
	}
	s.mu.Lock()
	err := s.q.admit(reqs, time.Now())
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
	labels := make([]*raster.Labels, len(tiles))
	for range tiles {
		res := <-out
		if res.err != nil && err == nil {
			err = res.err
		}
		labels[res.i] = res.labels
	}
	if err != nil {
		return nil, err
	}
	return labels, nil
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
			r.out <- result{i: r.i, err: ErrDeadlineExpired}
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
	for {
		if reqs := s.q.dispatch(); reqs != nil {
			return reqs
		}
		if s.q.closed {
			return nil
		}
		s.wake.Wait()
	}
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
			r.out <- result{i: r.i, err: err}
		} else {
			r.out <- result{i: r.i, labels: labels[i]}
		}
	}
}
