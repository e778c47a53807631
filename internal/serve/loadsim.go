package serve

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"seaice/internal/chaos"
	"seaice/internal/noise"
	"seaice/internal/simtime"
)

// LoadSimConfig parameterizes one discrete-event run of the serving
// stack under offered load. Each simulated node runs the production
// queueing policy itself — a batchQueue (batchqueue.go), the type
// Scheduler drives — on a virtual simtime clock, so latency-versus-load
// curves and deadline invariants are measured on shipped admission,
// batching and expiry code, deterministically, in microseconds of real
// time. Simulated is what surrounds the queue: arrivals, routing, faults
// and the duration of a forward pass.
type LoadSimConfig struct {
	// Nodes is the worker node count; each arriving request is routed to
	// a seeded-uniform node (the hash ring spreads distinct tiles the
	// same way).
	Nodes int `json:"nodes"`
	// Workers, MaxBatch and QueueSize are each node's serve.Config
	// fields of those names, passed to its queue.
	Workers   int `json:"workers"`
	MaxBatch  int `json:"max_batch"`
	QueueSize int `json:"queue_size"`
	// TileTime and BatchOverhead model one forward pass: overhead +
	// tileTime×size virtual seconds per batch on a healthy node.
	TileTime      float64 `json:"tile_time_s"`
	BatchOverhead float64 `json:"batch_overhead_s"`
	// Deadline is each client's budget in virtual seconds; 0 disables
	// deadlines (pure backpressure serving).
	Deadline float64 `json:"deadline_s"`
	// Duration is how long arrivals are generated, in virtual seconds
	// (in-flight work drains past the end).
	Duration float64 `json:"duration_s"`
	// Seed drives arrivals and routing; equal seeds reproduce runs
	// bit-for-bit.
	Seed uint64 `json:"seed"`
}

// One value each in every run the repository has made: constants.
const (
	simSecondsPerStep = 0.1  // virtual seconds per chaos fault step (DeliverVirtual)
	simBurstFactor    = 4    // arrival-rate multiplier inside a burst fault's window
	simRestartTime    = 0.05 // seconds until a worker killed by an injected panic is back
)

// LoadPoint is one measured point of the latency-versus-load curve plus
// the run's deadline-invariant counters.
type LoadPoint struct {
	// OfferedRPS is the baseline arrival rate (bursts multiply it
	// inside their window).
	OfferedRPS float64 `json:"offered_rps"`
	Arrived    int     `json:"arrived"`
	Admitted   int     `json:"admitted"`
	Completed  int     `json:"completed"`
	// RejectedOverload counts full-queue 429s; RejectedInfeasible
	// counts predictive-admission 429s (the model said the deadline
	// cannot be met); ExpiredDropped counts admitted requests dropped at
	// batch pickup because their deadline had passed (504s).
	RejectedOverload   int `json:"rejected_overload"`
	RejectedInfeasible int `json:"rejected_infeasible"`
	ExpiredDropped     int `json:"expired_dropped"`
	// MissedDeadline counts requests that completed after their
	// deadline (admission predicted they would fit, then a fault slowed
	// the node mid-flight).
	MissedDeadline int `json:"missed_deadline"`
	// AdmittedThenRejected and ExpiredComputed are the hard invariants —
	// 0 on every run — taken on the simulator's side of the queue:
	// admitted requests the queue never handed back, live or expired
	// (shed after admission), counted once the clock has drained; and
	// requests it handed over for compute past their deadline.
	AdmittedThenRejected int     `json:"admitted_then_rejected"`
	ExpiredComputed      int     `json:"expired_computed"`
	FaultsDelivered      int     `json:"faults_delivered"`
	P50MS                float64 `json:"p50_ms"`
	P99MS                float64 `json:"p99_ms"`
}

// simBatch is one forward pass in progress.
type simBatch struct {
	reqs []*request
	dur  float64
}

// simNode is one worker node: the production queue plus what the
// simulator stands in for — its workers and its health.
type simNode struct {
	q        *batchQueue
	idle     int     // workers holding no batch: not computing or restarting
	slow     float64 // slownode penalty added to every batch
	inflight []*simBatch
}

// LoadSim drives one simulated run. Construct with NewLoadSim, then
// Run.
type LoadSim struct {
	cfg        LoadSimConfig
	clock      *simtime.Clock
	rng        *noise.RNG
	inj        *chaos.Injector
	nodes      []*simNode
	burstUntil float64
	point      LoadPoint
	lat        []float64
	// arrived: admitted requests their queue has yet to hand back, by arrival instant
	arrived map[*request]float64
}

// NewLoadSim builds a simulator for one offered-load point. inj may be
// nil (no faults); it is consumed (each fault fires once), so build a
// fresh injector per run.
func NewLoadSim(cfg LoadSimConfig, offeredRPS float64, inj *chaos.Injector) (*LoadSim, error) {
	if cfg.Nodes < 1 || cfg.Workers < 1 || cfg.MaxBatch < 1 || cfg.QueueSize < 1 || offeredRPS <= 0 {
		return nil, fmt.Errorf("serve: load sim needs nodes, workers, max batch, queue size ≥1 and a positive offered load, got %+v at %g rps", cfg, offeredRPS)
	}
	s := &LoadSim{
		cfg:     cfg,
		clock:   &simtime.Clock{},
		rng:     noise.NewRNG(cfg.Seed, 0x10ad),
		inj:     inj,
		nodes:   make([]*simNode, cfg.Nodes),
		point:   LoadPoint{OfferedRPS: offeredRPS},
		arrived: make(map[*request]float64),
	}
	qcfg := Config{Workers: cfg.Workers, MaxBatch: cfg.MaxBatch, QueueSize: cfg.QueueSize}
	for i := range s.nodes {
		s.nodes[i] = &simNode{q: newBatchQueue(qcfg), idle: cfg.Workers}
	}
	return s, nil
}

// Run generates arrivals for cfg.Duration virtual seconds, drains all
// in-flight work, and returns the measured point.
func (s *LoadSim) Run() LoadPoint {
	s.inj.DeliverVirtual(s.clock, simSecondsPerStep, s.applyFault)
	s.clock.Schedule(0, s.arrive)
	s.clock.Run()
	s.point.FaultsDelivered = len(s.inj.Events())
	s.point.AdmittedThenRejected = len(s.arrived)
	sort.Float64s(s.lat)
	if n := len(s.lat); n > 0 {
		s.point.P50MS = 1000 * s.lat[percentileIndex(n, 0.50)]
		s.point.P99MS = 1000 * s.lat[percentileIndex(n, 0.99)]
	}
	return s.point
}

// applyFault reacts to a chaos fault at its virtual instant. Kinds that
// target other subsystems are ignored.
func (s *LoadSim) applyFault(f chaos.Fault) {
	switch f.Kind {
	case chaos.LoadBurst: // for a second unless it says how long
		s.burstUntil = max(s.burstUntil, s.clock.Now()+cmp.Or(f.Delay, time.Second).Seconds())
	case chaos.SlowNode: // by 10ms a batch unless it says how much
		s.nodes[f.Target%len(s.nodes)].slow += cmp.Or(f.Delay, 10*time.Millisecond).Seconds()
	case chaos.ServePanic:
		// Kill the busiest node's oldest in-flight batch, as a panic does
		// in Scheduler.worker: its requests requeue, the worker is back later.
		node := slices.MaxFunc(s.nodes, func(a, b *simNode) int { return len(a.inflight) - len(b.inflight) })
		if len(node.inflight) == 0 {
			return
		}
		node.q.requeue(node.inflight[0].reqs)
		node.inflight = node.inflight[1:]
		s.clock.After(simRestartTime, func() {
			node.idle++
			s.pump(node)
		})
		s.pump(node)
	}
}

// arrive submits one request to its node's queue and schedules the next
// arrival.
func (s *LoadSim) arrive() {
	now := s.clock.Now()
	if now < s.cfg.Duration {
		// Exponential interarrival at the current rate, ×simBurstFactor
		// inside a burst window.
		rate, u := s.point.OfferedRPS, max(s.rng.Float64(), math.SmallestNonzeroFloat64)
		if now < s.burstUntil {
			rate *= simBurstFactor
		}
		s.clock.After(-math.Log(u)/rate, s.arrive)
	}
	s.point.Arrived++
	node := s.nodes[s.rng.Intn(len(s.nodes))]
	req := &request{}
	if s.cfg.Deadline > 0 {
		req.deadline = simInstant(now + s.cfg.Deadline)
	}
	switch node.q.admit([]*request{req}, simInstant(now)) {
	case nil:
		s.point.Admitted++
		s.arrived[req] = now
		s.pump(node)
	case ErrOverloaded:
		s.point.RejectedOverload++
	default:
		s.point.RejectedInfeasible++ // *InfeasibleError
	}
}

// pump gives node's idle workers a turn whenever its queue may have
// changed — what a broadcast on Scheduler's condition variable does:
// each takes the batch the queue hands over, answers its expired
// requests, and starts the forward pass on the rest.
func (s *LoadSim) pump(node *simNode) {
	now := simInstant(s.clock.Now())
	for node.idle > 0 {
		reqs := node.q.dispatch()
		if reqs == nil {
			return
		}
		live, expired := triage(reqs, now)
		for _, r := range expired {
			s.point.ExpiredDropped++
			delete(s.arrived, r)
		}
		if len(live) == 0 {
			continue // the worker is still idle: it takes what is queued behind
		}
		for _, r := range live {
			if r.expired(now) {
				s.point.ExpiredComputed++
			}
		}
		node.idle--
		pass := &simBatch{reqs: live, dur: s.cfg.BatchOverhead + s.cfg.TileTime*float64(len(live)) + node.slow}
		node.inflight = append(node.inflight, pass)
		s.clock.After(pass.dur, func() { s.complete(node, pass) })
	}
}

// complete finishes one batch, records latencies, and keeps the node
// draining.
func (s *LoadSim) complete(node *simNode, pass *simBatch) {
	i := slices.Index(node.inflight, pass)
	if i < 0 {
		return // killed by an injected panic; its requests were requeued
	}
	node.inflight = slices.Delete(node.inflight, i, i+1)
	node.idle++
	node.q.model.Observe(len(pass.reqs), secToDur(pass.dur))
	now := s.clock.Now()
	for _, r := range pass.reqs {
		s.point.Completed++
		s.lat = append(s.lat, now-s.arrived[r])
		delete(s.arrived, r)
		if r.expired(simInstant(now)) {
			s.point.MissedDeadline++
		}
	}
	s.pump(node)
}

// simEpoch is virtual second 0 on the queue's time axis: any fixed
// instant but the zero time.Time, which means "no deadline".
var simEpoch = time.Unix(0, 0)

// simInstant and secToDur map virtual seconds to the nearest nanosecond.
func simInstant(sec float64) time.Time { return simEpoch.Add(secToDur(sec)) }

func secToDur(sec float64) time.Duration { return time.Duration(math.Round(sec * 1e9)) }

// LoadSweep runs one simulation per offered rate, each with a fresh
// injector built from spec (empty spec = fault-free), and returns the
// latency-versus-load curve.
func LoadSweep(cfg LoadSimConfig, rates []float64, spec string) ([]LoadPoint, error) {
	sched, err := chaos.Parse(spec)
	if err != nil {
		return nil, err
	}
	points := make([]LoadPoint, 0, len(rates))
	for _, r := range rates {
		sim, err := NewLoadSim(cfg, r, chaos.New(sched, cfg.Nodes))
		if err != nil {
			return nil, err
		}
		points = append(points, sim.Run())
	}
	return points, nil
}
