package serve

import (
	"math"
	"sync"
	"time"
)

// svcAlpha is the EWMA smoothing factor for service-time observations:
// heavy enough that the model tracks a node turning slow within a few
// batches, light enough that one outlier batch does not swing admission.
const svcAlpha = 0.2

// SvcModel is the predictive admission model: an EWMA service-time
// estimate per batch size, fed by every executed forward pass, plus an
// EWMA of the achieved batch size. From queue depth and worker count it
// predicts how long a newly enqueued request will take to complete, and
// admission compares that prediction against the request's deadline —
// replacing the blanket "queue full ⇒ 429" bound with "model says this
// deadline cannot be met ⇒ 429 now, with a model-derived Retry-After".
//
// All methods are safe for concurrent use. The zero prediction (no
// observations yet) is optimistic: with no data the model admits
// everything, and the first observed batches calibrate it.
type SvcModel struct {
	mu       sync.Mutex
	perBatch []float64 // EWMA seconds per executed batch, indexed by batch size
	seen     []bool    // whether perBatch[i] has ever been observed
	perTile  float64   // EWMA seconds per tile (fallback for unseen sizes)
	avgBatch float64   // EWMA achieved batch size
}

// NewSvcModel sizes the model for batches up to maxBatch tiles.
func NewSvcModel(maxBatch int) *SvcModel {
	if maxBatch < 1 {
		maxBatch = 1
	}
	return &SvcModel{
		perBatch: make([]float64, maxBatch+1),
		seen:     make([]bool, maxBatch+1),
		avgBatch: 1,
	}
}

// Observe feeds one executed batch (size tiles, duration d) into the
// EWMAs. Each step rounds its product on its own (float64(a*b)), so no
// target fuses it into a multiply-add: the model holds the same bits on
// every platform.
func (m *SvcModel) Observe(size int, d time.Duration) {
	if m == nil || size < 1 {
		return
	}
	secs := d.Seconds()
	m.mu.Lock()
	defer m.mu.Unlock()
	if size >= len(m.perBatch) {
		size = len(m.perBatch) - 1
	}
	if !m.seen[size] {
		m.perBatch[size] = secs
		m.seen[size] = true
	} else {
		m.perBatch[size] += float64(svcAlpha * (secs - m.perBatch[size]))
	}
	pt := secs / float64(size)
	if m.perTile == 0 {
		m.perTile = pt
	} else {
		m.perTile += float64(svcAlpha * (pt - m.perTile))
	}
	m.avgBatch += float64(svcAlpha * (float64(size) - m.avgBatch))
}

// batchTime estimates one batch execution of the given size, preferring
// the directly observed EWMA for that size and falling back to the
// per-tile rate. Callers hold m.mu.
func (m *SvcModel) batchTime(size int) float64 {
	if size < 1 {
		size = 1
	}
	if size >= len(m.perBatch) {
		size = len(m.perBatch) - 1
	}
	if m.seen[size] {
		return m.perBatch[size]
	}
	return m.perTile * float64(size)
}

// PredictWait estimates the completion time (from now) of a request
// enqueued behind queueDepth others on workers parallel workers: the
// backlog drains in ceil(depth/avgBatch) batches spread across the
// workers, plus the batch that will carry the new request itself.
// Returns 0 while the model has no observations.
func (m *SvcModel) PredictWait(queueDepth, workers int) time.Duration {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.perTile == 0 {
		return 0
	}
	if workers < 1 {
		workers = 1
	}
	ab := m.avgBatch
	if ab < 1 {
		ab = 1
	}
	batchesAhead := math.Ceil(float64(queueDepth) / ab)
	rounds := math.Ceil(batchesAhead/float64(workers)) + 1 // +1: the request's own batch
	secs := rounds * m.batchTime(int(math.Round(ab)))
	return time.Duration(secs * float64(time.Second))
}
