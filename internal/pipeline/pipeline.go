// Package pipeline is the streaming, sharded scene-to-sample pipeline —
// the paper's actual workflow shape. Where a batch build (the
// dataset.Build reference) filters, labels, and tiles every scene one
// stage after another, this package overlaps the stages the paper
// pipelines across nodes:
//
//	sharded scene catalog ──▶ filter+label workers ──▶ tiling stage ──▶ TrainSamples ──▶ ddp.Trainer.Fit
//	      (Source)             (Config.Workers,          (bounded          (the plan's
//	                            pool.Shared kernels)      prefetch)         training subset)
//
// A Stream pulls scenes from a Source in priority order (scenes feeding
// the earliest training batches first), runs the cloud filter and
// auto-labeler concurrently on Config.Workers stage workers (whose
// per-pixel kernels fan out on pool.Shared()), cuts the products into
// tiles behind bounded prefetch channels, and hands the plan's training
// subset to the trainer (TrainSamples) once its scenes are labeled.
// TrainBatchesOf also offers the subset as a double-buffered batch
// source for train.FitStream, the serial reference loop the benchmark
// harness drives. Shards are the unit of cataloging, checkpointing
// (resume skips shards already on disk), and progress reporting.
//
// Determinism guarantee: every per-scene product depends only on the
// scene and the build configuration — never on shard count, worker
// count, or completion order — and all split/subsample/batch index math
// is shared with the batch path (dataset.SplitIndices,
// dataset.SubsampleIndices, train.BatchIndices). The stream therefore
// emits tiles, labels, and the train/test split byte-identical to
// dataset.Build at any parallelism, which the parity tests assert by
// materializing the source and running dataset.Build as the reference.
package pipeline

import (
	"fmt"
	"sort"
	"sync"

	"seaice/internal/catalog"
	"seaice/internal/chaos"
	"seaice/internal/dataset"
	"seaice/internal/raster"
	"seaice/internal/scene"
	"seaice/internal/train"
)

// Source is a sharded scene catalog: anything that can name its scene
// count and render scene i on demand. Implementations must be safe for
// concurrent SceneAt calls and deterministic — SceneAt(i) yields
// identical pixels every time, so resumed and re-run pipelines agree.
type Source interface {
	// Len is the number of scenes in the campaign.
	Len() int
	// Size is the scene dimensions (all scenes share them).
	Size() (w, h int)
	// SceneAt renders or fetches scene i.
	SceneAt(i int) (*scene.Scene, error)
	// Fingerprint identifies the source's content; checkpoints recorded
	// under a different fingerprint are ignored on resume.
	Fingerprint() string
}

// CollectionSource streams a synthetic campaign, generating each scene
// on demand via scene.GenerateAt — no scene is materialized before its
// shard is pulled.
type CollectionSource struct {
	Cfg scene.CollectionConfig
}

// Len implements Source.
func (s CollectionSource) Len() int { return s.Cfg.Scenes }

// Size implements Source.
func (s CollectionSource) Size() (w, h int) { return s.Cfg.W, s.Cfg.H }

// SceneAt implements Source.
func (s CollectionSource) SceneAt(i int) (*scene.Scene, error) {
	return scene.GenerateAt(s.Cfg, i)
}

// Fingerprint implements Source.
func (s CollectionSource) Fingerprint() string {
	return fmt.Sprintf("collection/%+v", s.Cfg)
}

// SliceSource adapts pre-materialized scenes to the streaming interface.
// All scenes must share the dimensions of the first; the stream rejects
// mismatched scenes when they reach the label stage (global tile
// indexing depends on a uniform grid).
type SliceSource []*scene.Scene

// Len implements Source.
func (s SliceSource) Len() int { return len(s) }

// Size implements Source.
func (s SliceSource) Size() (w, h int) {
	if len(s) == 0 {
		return 0, 0
	}
	return s[0].Image.W, s[0].Image.H
}

// SceneAt implements Source.
func (s SliceSource) SceneAt(i int) (*scene.Scene, error) { return s[i], nil }

// Fingerprint implements Source. Scenes are deterministic in their
// configs, so the config list identifies the content.
func (s SliceSource) Fingerprint() string {
	h := "slice"
	for _, sc := range s {
		h += fmt.Sprintf("/%+v", sc.Config)
	}
	return h
}

// CatalogSource streams the result of a catalog query: each shard's
// scenes are fetched ("downloaded") on demand by the stage workers,
// never materialized up front. Fetches are deterministic in the
// descriptor seeds, so resumed runs see identical pixels.
type CatalogSource struct {
	Cat    *catalog.Catalog
	Scenes []catalog.Descriptor
}

// Len implements Source.
func (s CatalogSource) Len() int { return len(s.Scenes) }

// Size implements Source.
func (s CatalogSource) Size() (w, h int) {
	return s.Cat.SceneSize(), s.Cat.SceneSize()
}

// SceneAt implements Source.
func (s CatalogSource) SceneAt(i int) (*scene.Scene, error) {
	return s.Cat.Fetch(s.Scenes[i])
}

// Fingerprint implements Source. Descriptor IDs and seeds identify the
// fetched content.
func (s CatalogSource) Fingerprint() string {
	h := "catalog"
	for _, d := range s.Scenes {
		h += fmt.Sprintf("/%s:%d", d.ID, d.Seed)
	}
	return h
}

// TrainPlan fixes the deterministic train/test plumbing the assembler
// needs ahead of the data: the split, the optional stratified subsamples,
// the dataset views, and the batch schedule. Tile counts are known from
// the source dimensions alone, so the whole plan — including which scenes
// feed which training batches — is computed before a single scene is
// labeled; that is what lets the scheduler prioritize the scenes the
// first batches need.
type TrainPlan struct {
	// TrainFrac and SplitSeed drive dataset.SplitIndices (paper: 0.8).
	TrainFrac float64
	SplitSeed uint64
	// TrainTiles caps the training subset via dataset.SubsampleIndices
	// with TrainSeed; 0 keeps every train tile. TestTiles/TestSeed do
	// the same for the held-out subset.
	TrainTiles int
	TrainSeed  uint64
	TestTiles  int
	TestSeed   uint64
	// Image and Labels select the dataset views fed to the model.
	Image  dataset.ImageKind
	Labels dataset.LabelKind
	// BatchSize and BatchSeed drive train.BatchIndices; the epoch count
	// is the trainer's (train.Config.Epochs) — each Epoch(e) call
	// derives that epoch's schedule independently.
	BatchSize int
	BatchSeed uint64
}

// Event is one pipeline progress notification.
type Event struct {
	// Kind is "resume" (shard restored from checkpoint), "scene" (one
	// scene labeled and tiled), "retry" (a stage failure being
	// re-attempted), "quarantine" (a poisoned scene dropped from the
	// products), or "shard" (one shard fully done).
	Kind string
	// Shard/Shards locate the event: Shard is the shard the scene or
	// completion belongs to.
	Shard, Shards int
	// ScenesDone/Scenes is the global completion count.
	ScenesDone, Scenes int
}

// Config controls a Stream.
type Config struct {
	// Build is the shared filter/label/tile configuration.
	Build dataset.BuildConfig
	// Shards partitions the catalog; <= 0 derives one shard per two
	// stage workers (at least one). Shards are the checkpoint and
	// progress unit.
	Shards int
	// Workers is the number of concurrent filter+label stage workers;
	// <= 0 uses the build config's worker count, and failing that
	// GOMAXPROCS. Per-pixel kernels inside each worker additionally fan
	// out on pool.Shared().
	Workers int
	// Prefetch bounds the channels between the label and tiling stages
	// (items in flight); <= 0 means 2.
	Prefetch int
	// CheckpointDir, when non-empty, persists each completed shard's
	// tiles and resumes from matching shards on the next run.
	CheckpointDir string
	// Retries is the per-scene retry budget of the label/tile stages: a
	// stage worker that panics or errors on a scene (an injected chaos
	// fault, a flaky catalog fetch) re-attempts it up to Retries times
	// before the failure becomes fatal. Retried scenes produce identical
	// products (every stage is a pure function of scene + config), so
	// retry changes wall clock, never output. 0 disables retry.
	Retries int
	// Chaos injects deterministic stage-worker faults (panics, corrupted
	// scene bytes, torn checkpoint writes at exact scene indices) for the
	// fault-tolerance tests and the -chaos flags; nil disables injection.
	Chaos *chaos.Injector
	// Quarantine, when set, drops scenes that stay poisoned (failed
	// integrity validation or a panicking stage) through the whole retry
	// budget into the stream's quarantine report (Quarantined) instead of
	// failing the run. Quarantined scenes contribute no tiles; plan-based
	// consumers that need one of their tiles report an error naming the
	// scene. Off by default: a silently shrinking dataset is the wrong
	// default for training parity.
	Quarantine bool
	// Plan enables TrainBatchesOf/TrainSamples/TestTiles and scene
	// prioritization. Without it scenes are processed in index order.
	Plan *TrainPlan
	// Progress, if non-nil, receives Events. Calls are serialized.
	Progress func(Event)
}

// StreamBuilder runs the streaming pipeline to completion and returns the
// whole tile dataset.
type StreamBuilder struct {
	Config Config
}

// BuildSet runs src through the pipeline and collects every tile.
func (b StreamBuilder) BuildSet(src Source) (*dataset.Set, error) {
	st, err := New(src, b.Config)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	return st.Set()
}

// Stream is one pipeline run over a source. Consumers (Set, TrainBatchesOf,
// TrainSamples, TestTiles) may be used concurrently; the stage goroutines
// start on first consumption.
type Stream struct {
	src Source
	cfg Config

	n             int // scenes
	w, h          int
	tilesPerScene int
	shards        [][]int // scene indices per shard (index order)
	order         []int   // global scene processing order (priority)

	plan *planState // nil without cfg.Plan

	start  sync.Once
	quit   chan struct{} // closed by Close or on failure
	emitMu sync.Mutex    // serializes Progress callbacks

	mu          sync.Mutex
	cond        *sync.Cond
	tiles       [][]dataset.Tile // per-scene, nil until ready
	doneCount   int
	shardLeft   []int // scenes outstanding per shard
	cpPending   int   // shard checkpoint writes in flight
	closed      bool
	err         error
	cpErr       error // last non-fatal checkpoint I/O error
	quarantined []QuarantineRecord
	qSet        map[int]bool // scene index -> quarantined
}

// planState is the precomputed index plumbing of a TrainPlan.
type planState struct {
	trainTileIdx []int   // global tile index per training sample
	testTileIdx  []int   // global tile index per held-out sample
	batchScenes  [][]int // epoch-0 batch → distinct scenes it needs
	priority     []int   // per-scene: first epoch-0 batch needing it
}

// New validates the configuration and lays out shards and the scene
// schedule; stages start on first consumption.
func New(src Source, cfg Config) (*Stream, error) {
	n := src.Len()
	if n <= 0 {
		return nil, fmt.Errorf("pipeline: source has no scenes")
	}
	w, h := src.Size()
	if cfg.Build.TileSize <= 0 {
		return nil, fmt.Errorf("pipeline: tile size %d", cfg.Build.TileSize)
	}
	grid, err := raster.GridFor(w, h, cfg.Build.TileSize, cfg.Build.TileSize)
	if err != nil {
		return nil, fmt.Errorf("pipeline: %w", err)
	}
	s := &Stream{
		src:           src,
		cfg:           cfg,
		n:             n,
		w:             w,
		h:             h,
		tilesPerScene: grid.Cols * grid.Rows,
		quit:          make(chan struct{}),
		tiles:         make([][]dataset.Tile, n),
	}
	s.cond = sync.NewCond(&s.mu)

	if s.cfg.Workers <= 0 {
		s.cfg.Workers = cfg.Build.Workers
	}
	if s.cfg.Workers <= 0 {
		s.cfg.Workers = defaultWorkers()
	}
	if s.cfg.Prefetch <= 0 {
		s.cfg.Prefetch = 2
	}
	if s.cfg.Shards <= 0 {
		s.cfg.Shards = (s.cfg.Workers + 1) / 2
	}
	if s.cfg.Shards > n {
		s.cfg.Shards = n
	}

	// Contiguous shard layout: shard k covers scenes [k*per, …).
	per := (n + s.cfg.Shards - 1) / s.cfg.Shards
	s.shardLeft = make([]int, s.cfg.Shards)
	for k := 0; k < s.cfg.Shards; k++ {
		lo, hi := k*per, (k+1)*per
		if hi > n {
			hi = n
		}
		shard := make([]int, 0, hi-lo)
		for i := lo; i < hi; i++ {
			shard = append(shard, i)
		}
		s.shards = append(s.shards, shard)
		s.shardLeft[k] = len(shard)
	}

	if cfg.Plan != nil {
		if s.plan, err = s.computePlan(*cfg.Plan); err != nil {
			return nil, err
		}
	}
	s.order = s.schedule()
	return s, nil
}

// computePlan resolves a TrainPlan into concrete tile indices and the
// scene priorities of epoch 0 — pure index math shared with the batch
// path, evaluated before any scene exists.
func (s *Stream) computePlan(p TrainPlan) (*planState, error) {
	if p.BatchSize <= 0 {
		return nil, fmt.Errorf("pipeline: plan batch size %d", p.BatchSize)
	}
	total := s.n * s.tilesPerScene
	trainIdx, testIdx, err := dataset.SplitIndices(total, p.TrainFrac, p.SplitSeed)
	if err != nil {
		return nil, fmt.Errorf("pipeline: %w", err)
	}
	ps := &planState{}
	if p.TrainTiles > 0 {
		for _, j := range dataset.SubsampleIndices(len(trainIdx), p.TrainTiles, p.TrainSeed) {
			ps.trainTileIdx = append(ps.trainTileIdx, trainIdx[j])
		}
	} else {
		ps.trainTileIdx = trainIdx
	}
	if p.TestTiles > 0 {
		for _, j := range dataset.SubsampleIndices(len(testIdx), p.TestTiles, p.TestSeed) {
			ps.testTileIdx = append(ps.testTileIdx, testIdx[j])
		}
	} else {
		ps.testTileIdx = testIdx
	}
	if len(ps.trainTileIdx) == 0 {
		return nil, fmt.Errorf("pipeline: plan selects no training tiles")
	}

	// Scene priority: the first epoch-0 batch that touches the scene.
	// Scenes no training batch needs sort after all training scenes.
	ps.priority = make([]int, s.n)
	unneeded := 1 << 30
	for i := range ps.priority {
		ps.priority[i] = unneeded
	}
	batches := train.BatchIndices(len(ps.trainTileIdx), p.BatchSize, p.BatchSeed, 0)
	ps.batchScenes = make([][]int, len(batches))
	for b, idxs := range batches {
		seen := map[int]bool{}
		for _, sampleIdx := range idxs {
			sc := ps.trainTileIdx[sampleIdx] / s.tilesPerScene
			if !seen[sc] {
				seen[sc] = true
				ps.batchScenes[b] = append(ps.batchScenes[b], sc)
			}
			if b < ps.priority[sc] {
				ps.priority[sc] = b
			}
		}
		sort.Ints(ps.batchScenes[b])
	}
	return ps, nil
}

// schedule orders scene processing: with a plan, by the first training
// batch each scene feeds (ties and test-only scenes by index); without
// one, by index. The order affects wall-clock overlap only — outputs are
// order-independent.
func (s *Stream) schedule() []int {
	order := make([]int, s.n)
	for i := range order {
		order[i] = i
	}
	if s.plan == nil {
		return order
	}
	sort.SliceStable(order, func(a, b int) bool {
		return s.plan.priority[order[a]] < s.plan.priority[order[b]]
	})
	return order
}

// Close releases the stage goroutines. It is safe to call at any time;
// consumers blocked on the stream return ErrClosed-wrapped errors.
func (s *Stream) Close() {
	s.fail(fmt.Errorf("pipeline: stream closed"))
}

// fail records the first error, wakes every waiter, and stops the
// stages by closing quit. Waiters report the error only for data that
// never arrived, so closing a completed stream keeps its results usable.
func (s *Stream) fail(err error) {
	if err == nil {
		return
	}
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		s.err = err
		close(s.quit)
	}
	s.mu.Unlock()
	s.cond.Broadcast()
}

// emit serializes Progress callbacks (concurrent tiling workers may
// deliver simultaneously; the dedicated mutex keeps the documented
// one-at-a-time contract without holding the assembler lock).
func (s *Stream) emit(ev Event) {
	if s.cfg.Progress == nil {
		return
	}
	ev.Shards = s.cfg.Shards
	ev.Scenes = s.n
	s.emitMu.Lock()
	defer s.emitMu.Unlock()
	s.cfg.Progress(ev)
}

func defaultWorkers() int {
	// The stage pool mirrors the kernel pool: one knob (pool.Shared)
	// sizes the engine, and the stage fan-out matches it.
	return sharedWorkers()
}
