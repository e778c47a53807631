// Package serve turns trained U-Net checkpoints into an online sea-ice
// classification service — the serving layer the paper's offline
// workflow (Fig 9) stops short of. It provides:
//
//   - a model Registry that loads, validates, and warms checkpoints;
//   - a Scheduler that queues each request's tiles as a unit and runs
//     them as micro-batches on a fixed pool of inference workers, each
//     owning a pre-allocated unet.Session (amortizing conv cost the same
//     way internal/train batches do). A batch forms from what is queued
//     when an idle worker picks it up — the head plus the same-model,
//     same-shape tiles directly behind it — so no worker waits for
//     followers. The queueing policy is the clock-free batchQueue, which
//     the load simulator drives too;
//   - a content-hash LRU Cache consulted before any work: unfiltered
//     requests are keyed on their input pixels (one entry per stitched
//     scene), pre-filtered ones per tile (see cache.go);
//   - bounded queues with backpressure, so overload surfaces as
//     ErrOverloaded (HTTP 429) instead of collapse;
//   - self-healing workers: a panic escaping a batch (injected via
//     internal/chaos or real) restarts only that worker and requeues its
//     batch — admitted requests are never dropped or turned into 429s;
//     /healthz exposes live_workers and worker_restarts;
//   - an HTTP front end (Server) with /classify, /healthz, and /statz.
//
// cmd/seaice-serve is the binary wrapping this package; the tile →
// filter → classify → stitch pipeline itself is shared with the CLI via
// internal/core's TilePredictor seam.
//
// The stack is precision-agnostic: it serves any unet.Engine, so one
// registry can mix the f64 reference numerics, the f32 bandwidth- and
// multiply-reduced hot path, and the int8 post-training-quantized
// engine (cmd/seaice-serve selects per model with -precision; int8
// needs a quantized checkpoint from seaice-train -quantize). Unknown
// precision names are rejected with the typed *UnknownPrecisionError.
//
// Parallelism/determinism guarantees: each inference worker owns its
// predictor, so requests never share mutable model state, and a tile's
// prediction is a pure function of its pixels, the checkpoint, and the
// serving precision — micro-batch composition, queue order, worker
// count, and cache hits/misses change latency, never a single output
// pixel. The int8 engine is additionally bit-deterministic across
// kernel backends and hosts (fixed-point requantization; see
// internal/tensor's quantization docs).
package serve

import (
	"fmt"
	"runtime"

	"seaice/internal/chaos"
	"seaice/internal/dataset"
)

// Config sizes the service.
type Config struct {
	// TileSize is the served tile edge; /classify inputs must divide
	// evenly into TileSize×TileSize tiles.
	TileSize int
	// MaxBatch caps tiles per forward pass. Batches form from what is
	// queued when a worker picks one up; nothing waits for followers.
	MaxBatch int
	// Workers is the number of inference workers (each owns a session
	// per model).
	Workers int
	// QueueSize bounds the request queue; a full queue rejects with
	// ErrOverloaded.
	QueueSize int
	// CacheSize is the result LRU capacity in tiles: the cache holds up
	// to CacheSize × TileSize² label pixels, whether an entry is one
	// tile or a whole stitched scene; 0 disables caching.
	CacheSize int
	// Build supplies the thin-cloud/shadow filter configuration of the
	// shared inference path.
	Build dataset.BuildConfig
	// Chaos injects deterministic worker panics (by batch-pickup
	// ordinal) to exercise the self-healing worker pool; nil disables
	// injection. Real panics escaping a session take the identical
	// restart path.
	Chaos *chaos.Injector
}

// DefaultConfig returns production-shaped defaults for the host.
func DefaultConfig() Config {
	return Config{
		TileSize:  32,
		MaxBatch:  16,
		Workers:   runtime.GOMAXPROCS(0),
		QueueSize: 256,
		CacheSize: 4096,
		Build:     dataset.DefaultBuild(),
	}
}

// Validate rejects unusable configurations.
func (c Config) Validate() error {
	if c.TileSize < 1 {
		return fmt.Errorf("serve: tile size must be ≥1, got %d", c.TileSize)
	}
	if c.MaxBatch < 1 {
		return fmt.Errorf("serve: max batch must be ≥1, got %d", c.MaxBatch)
	}
	if c.Workers < 1 {
		return fmt.Errorf("serve: workers must be ≥1, got %d", c.Workers)
	}
	if c.QueueSize < 1 {
		return fmt.Errorf("serve: queue size must be ≥1, got %d", c.QueueSize)
	}
	if c.CacheSize < 0 {
		return fmt.Errorf("serve: negative cache size %d", c.CacheSize)
	}
	return nil
}
