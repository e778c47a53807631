package serve

import (
	"sort"
	"sync"
	"time"
)

// latencyWindow is how many recent request latencies the percentile
// estimates are computed over.
const latencyWindow = 4096

// Stats aggregates service-level metrics: request/tile/batch counters
// and a sliding window of request latencies for percentile estimates.
// All methods are safe for concurrent use.
type Stats struct {
	mu       sync.Mutex
	start    time.Time
	requests int64
	tiles    int64
	errors   int64
	rejected int64
	batches  int64
	batched  int64 // tiles that went through batches
	restarts int64 // inference workers restarted after a panic
	expired  int64 // requests dropped in queue after their deadline passed
	infeasib int64 // requests refused by predictive deadline admission

	lat    []time.Duration // ring buffer of recent request latencies
	latIdx int
	latN   int
}

// NewStats returns a zeroed recorder with the clock started.
func NewStats() *Stats {
	return &Stats{start: time.Now(), lat: make([]time.Duration, latencyWindow)}
}

// RecordRequest accounts one classification request covering n tiles.
// Failed requests count as errors but stay out of the latency window:
// fast 429s during overload must not drag the reported percentiles
// down while the requests that actually succeed are slow.
func (s *Stats) RecordRequest(d time.Duration, n int, failed bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.requests++
	s.tiles += int64(n)
	if failed {
		s.errors++
		return
	}
	s.lat[s.latIdx] = d
	s.latIdx = (s.latIdx + 1) % len(s.lat)
	if s.latN < len(s.lat) {
		s.latN++
	}
}

// RecordBatch accounts one executed forward-pass batch of n tiles.
func (s *Stats) RecordBatch(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.batches++
	s.batched += int64(n)
}

// RecordWorkerRestart accounts one inference worker restarted after a
// panic (injected or real) — the health signal behind /healthz.
func (s *Stats) RecordWorkerRestart() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.restarts++
}

// WorkerRestarts reports the cumulative restart count.
func (s *Stats) WorkerRestarts() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.restarts
}

// RecordReject accounts one request refused for backpressure.
func (s *Stats) RecordReject() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rejected++
}

// RecordExpired accounts one queued request dropped before compute
// because its deadline had already passed.
func (s *Stats) RecordExpired() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expired++
}

// RecordDeadlineReject accounts one request refused at admission because
// the service-time model predicted it could not meet its deadline.
func (s *Stats) RecordDeadlineReject() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.infeasib++
}

// Snapshot is a point-in-time view of the service metrics, shaped for
// the /statz endpoint.
type Snapshot struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Requests      int64   `json:"requests"`
	Tiles         int64   `json:"tiles"`
	Errors        int64   `json:"errors"`
	Rejected      int64   `json:"rejected"`
	Batches       int64   `json:"batches"`
	AvgBatchSize  float64 `json:"avg_batch_size"`
	P50Millis     float64 `json:"p50_ms"`
	P99Millis     float64 `json:"p99_ms"`
	RequestsPerS  float64 `json:"requests_per_s"`
	TilesPerS     float64 `json:"tiles_per_s"`
	CacheHits     int64   `json:"cache_hits"`
	CacheMisses   int64   `json:"cache_misses"`
	CacheHitRate  float64 `json:"cache_hit_rate"`
	QueueDepth    int     `json:"queue_depth"`
	// WorkerRestarts and LiveWorkers are the self-healing pool's health
	// signals: restarts count recovered panics; live is the current
	// worker gauge (dips briefly mid-restart).
	WorkerRestarts int64 `json:"worker_restarts"`
	LiveWorkers    int   `json:"live_workers"`
	// ExpiredDropped counts queued requests dropped before compute after
	// their deadline passed (HTTP 504); DeadlineRejected counts requests
	// the admission model refused at enqueue (HTTP 429 with a
	// model-derived Retry-After); PredictedWaitMS is the model's current
	// completion estimate for a newly enqueued request.
	ExpiredDropped   int64   `json:"expired_dropped"`
	DeadlineRejected int64   `json:"deadline_rejected"`
	PredictedWaitMS  float64 `json:"predicted_wait_ms"`
}

// Snapshot folds the counters and the current queue/cache/worker state
// into a Snapshot.
func (s *Stats) Snapshot(queueDepth, liveWorkers int, cacheHits, cacheMisses int64) Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	up := time.Since(s.start).Seconds()
	snap := Snapshot{
		UptimeSeconds:    up,
		Requests:         s.requests,
		Tiles:            s.tiles,
		Errors:           s.errors,
		Rejected:         s.rejected,
		Batches:          s.batches,
		CacheHits:        cacheHits,
		CacheMisses:      cacheMisses,
		QueueDepth:       queueDepth,
		WorkerRestarts:   s.restarts,
		LiveWorkers:      liveWorkers,
		ExpiredDropped:   s.expired,
		DeadlineRejected: s.infeasib,
	}
	if s.batches > 0 {
		snap.AvgBatchSize = float64(s.batched) / float64(s.batches)
	}
	if up > 0 {
		snap.RequestsPerS = float64(s.requests) / up
		snap.TilesPerS = float64(s.tiles) / up
	}
	if total := cacheHits + cacheMisses; total > 0 {
		snap.CacheHitRate = float64(cacheHits) / float64(total)
	}
	if s.latN > 0 {
		window := make([]time.Duration, s.latN)
		copy(window, s.lat[:s.latN])
		sort.Slice(window, func(i, j int) bool { return window[i] < window[j] })
		snap.P50Millis = float64(window[percentileIndex(s.latN, 0.50)]) / float64(time.Millisecond)
		snap.P99Millis = float64(window[percentileIndex(s.latN, 0.99)]) / float64(time.Millisecond)
	}
	return snap
}

// percentileIndex maps a percentile to a sorted-slice index (nearest
// rank). The product is rounded on its own (float64(p*n)), so no target
// fuses it into a multiply-add.
func percentileIndex(n int, p float64) int {
	i := int(float64(p*float64(n)) + 0.5)
	if i >= n {
		i = n - 1
	}
	if i < 0 {
		i = 0
	}
	return i
}
