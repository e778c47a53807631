package pipeline

import (
	"errors"
	"fmt"

	"seaice/internal/dataset"
	"seaice/internal/pool"
	"seaice/internal/train"
)

// sharedWorkers sizes the default stage fan-out from the shared kernel
// pool, so `-procs` (pool.SetSharedWorkers) is the one parallelism knob.
func sharedWorkers() int { return pool.Shared().Workers() }

// labeled carries one scene between the label and tiling stages.
type labeled struct {
	index int
	ls    *dataset.LabeledScene
}

// ensureStarted launches the stage goroutines exactly once.
func (s *Stream) ensureStarted() {
	s.start.Do(func() { go s.run() })
}

// run is the pipeline driver: it restores checkpointed shards, feeds the
// remaining scenes to the label workers in schedule order, fans the
// results through the bounded tiling stage, and delivers per-scene tiles
// to the assembler.
func (s *Stream) run() {
	resumed := s.restoreShards()

	// Scene feed, skipping scenes restored from checkpoints but keeping
	// the priority order for the rest.
	sceneCh := make(chan int, s.cfg.Prefetch)
	go func() {
		defer close(sceneCh)
		for _, i := range s.order {
			if resumed[i] {
				continue
			}
			select {
			case sceneCh <- i:
			case <-s.quit:
				return
			}
		}
	}()

	// Stage 1: filter + auto-label workers. Each worker's per-pixel
	// kernels (cloudfilter, autolabel) additionally stripe across
	// pool.Shared().
	labeledCh := make(chan labeled, s.cfg.Prefetch)
	go func() {
		defer close(labeledCh)
		p := pool.New(s.cfg.Workers)
		// Expected errors are reported through s.fail inline (closing
		// s.quit stops the feeder and unblocks every stage early), but
		// the Map error must still be checked: a panic inside a worker
		// surfaces only there, and dropping it would leave the stream
		// hung instead of failed.
		if err := p.Map(s.cfg.Workers, func(int) error {
			for i := range sceneCh {
				ls, err := s.labelSceneWithRetry(i)
				if err != nil {
					var poison *poisonError
					if s.cfg.Quarantine && errors.As(err, &poison) {
						// The scene stayed poisoned through the retry
						// budget: drop it into the report and keep the
						// run alive.
						s.quarantine(i, err)
						continue
					}
					s.fail(err)
					return nil
				}
				select {
				case labeledCh <- labeled{index: i, ls: ls}:
				case <-s.quit:
					return nil
				}
			}
			return nil
		}); err != nil {
			s.fail(err)
		}
	}()

	// Stage 2: tiling workers behind the bounded prefetch channel. Tiling
	// is much cheaper than labeling, so half the stage width suffices;
	// the bounded channels keep at most Prefetch scene products in
	// flight between the stages, which caps memory at any shard count.
	tilers := (s.cfg.Workers + 1) / 2
	p := pool.New(tilers)
	if err := p.Map(tilers, func(int) error {
		for l := range labeledCh {
			tiles, err := dataset.TileScene(l.ls, l.index, s.cfg.Build)
			if err != nil {
				s.fail(fmt.Errorf("pipeline: tile scene %d: %w", l.index, err))
				return nil
			}
			s.deliver(l.index, tiles, true)
		}
		return nil
	}); err != nil {
		s.fail(err)
	}
}

// labelSceneWithRetry runs the fetch+filter+label stage for one scene,
// re-attempting after a worker panic or error up to Config.Retries
// times — the shard-level fault tolerance of the label stage. Every
// stage is a pure function of (scene, config), so a retried scene's
// products are identical to a first-try success; retry changes wall
// clock only. The chaos injector's stage faults fire here, at their
// exact scene index, one-shot — so an injected panic is recovered by
// the first retry.
func (s *Stream) labelSceneWithRetry(i int) (*dataset.LabeledScene, error) {
	var lastErr error
	for attempt := 0; attempt <= s.cfg.Retries; attempt++ {
		if attempt > 0 {
			s.emit(Event{Kind: "retry", Shard: s.shardOf(i), ScenesDone: s.completed()})
		}
		ls, err := s.labelScene(i)
		if err == nil {
			return ls, nil
		}
		lastErr = err
		var perm *permanentError
		if errors.As(err, &perm) {
			// Deterministic failures (mis-sized scene, bad label
			// config) recur on every attempt; retrying would only burn
			// fetch I/O and emit misleading retry events.
			break
		}
	}
	return nil, lastErr
}

// permanentError marks a stage failure that is a pure function of
// (scene, config) and therefore not worth retrying.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// labelScene is one attempt: panics (injected or real) surface as
// errors, so the stage worker survives to retry. Transient-shaped
// failures (fetch errors, panics) return plain errors; deterministic
// ones come back wrapped as permanentError.
func (s *Stream) labelScene(i int) (ls *dataset.LabeledScene, err error) {
	defer func() {
		if r := recover(); r != nil {
			// A panic mid-decode means the scene bytes are suspect:
			// poison-typed, so Quarantine can catch a scene that panics
			// through the whole retry budget.
			err = &poisonError{fmt.Errorf("pipeline: scene %d stage worker panicked: %v", i, r)}
		}
	}()
	sc, err := s.src.SceneAt(i)
	if err != nil {
		return nil, fmt.Errorf("pipeline: scene %d: %w", i, err)
	}
	// Global tile indexing assumes every scene matches the source's
	// declared size; a mismatched scene (a source whose scenes differ in size)
	// would silently misaddress tiles, so reject it here.
	if sc.Image.W != s.w || sc.Image.H != s.h {
		return nil, &permanentError{fmt.Errorf("pipeline: scene %d is %dx%d, source declared %dx%d",
			i, sc.Image.W, sc.Image.H, s.w, s.h)}
	}
	if s.cfg.Chaos.BadScene(i) {
		// Injected silent corruption: poison a copy (the retry after this
		// one-shot fault must see the source's pristine bytes).
		sc = poisonScene(sc)
	}
	if err := validateScene(i, sc); err != nil {
		return nil, err
	}
	if s.cfg.Chaos.StagePanic(i) {
		panic(fmt.Sprintf("chaos: injected stage fault on scene %d", i))
	}
	ls, err = dataset.LabelScene(sc, s.cfg.Build)
	if err != nil {
		return nil, &permanentError{fmt.Errorf("pipeline: label scene %d: %w", i, err)}
	}
	return ls, nil
}

// shardOf maps a scene index to its contiguous shard.
func (s *Stream) shardOf(scene int) int {
	per := (s.n + s.cfg.Shards - 1) / s.cfg.Shards
	return scene / per
}

// deliver hands one scene's tiles to the assembler, emits progress, and
// flushes the scene's shard checkpoint when the shard completes.
// checkpointable is false for scenes restored from disk.
func (s *Stream) deliver(scene int, tiles []dataset.Tile, checkpointable bool) {
	shard := s.shardOf(scene)

	s.mu.Lock()
	if s.tiles[scene] != nil {
		s.mu.Unlock()
		return
	}
	s.tiles[scene] = tiles
	s.doneCount++
	s.shardLeft[shard]--
	shardDone := s.shardLeft[shard] == 0
	saving := shardDone && checkpointable && s.cfg.CheckpointDir != ""
	if saving {
		// Registered under the same lock that publishes completion, so
		// waitAll cannot observe the stream done while this shard's
		// checkpoint write (with its fsyncs) is still in flight.
		s.cpPending++
	}
	done := s.doneCount
	s.mu.Unlock()
	s.cond.Broadcast()

	s.emit(Event{Kind: "scene", Shard: shard, ScenesDone: done})
	if shardDone {
		if saving {
			s.saveShard(shard)
			s.mu.Lock()
			s.cpPending--
			s.mu.Unlock()
			s.cond.Broadcast()
		}
		s.emit(Event{Kind: "shard", Shard: shard, ScenesDone: done})
	}
}

// waitScenes blocks until every scene in idx is assembled (or the stream
// fails). idx may contain duplicates.
func (s *Stream) waitScenes(idx []int) error {
	s.ensureStarted()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, i := range idx {
		for s.tiles[i] == nil && s.err == nil {
			s.cond.Wait()
		}
		if s.err != nil && s.tiles[i] == nil {
			return s.err
		}
	}
	return nil
}

// waitAll blocks until the full campaign is assembled and every shard
// checkpoint write has settled (so a returned build implies durable
// checkpoints).
func (s *Stream) waitAll() error {
	s.ensureStarted()
	s.mu.Lock()
	defer s.mu.Unlock()
	for (s.doneCount < s.n || s.cpPending > 0) && s.err == nil {
		s.cond.Wait()
	}
	if s.doneCount == s.n && s.cpPending == 0 {
		return nil
	}
	return s.err
}

// Set drains the stream into the batch product: a dataset.Set
// with tiles in scene order, byte-identical to dataset.Build.
func (s *Stream) Set() (*dataset.Set, error) {
	if err := s.waitAll(); err != nil {
		return nil, err
	}
	set := &dataset.Set{TileSize: s.cfg.Build.TileSize}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, tiles := range s.tiles {
		set.Tiles = append(set.Tiles, tiles...)
	}
	return set, nil
}

// tileAt returns the already-assembled tile with the given global index;
// callers must have waited on its scene.
func (s *Stream) tileAt(global int) dataset.Tile {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tiles[global/s.tilesPerScene][global%s.tilesPerScene]
}

// gather waits for and collects the tiles with the given global indices,
// in order.
func (s *Stream) gather(global []int) ([]dataset.Tile, error) {
	scenes := make([]int, len(global))
	for i, g := range global {
		scenes[i] = g / s.tilesPerScene
	}
	if err := s.waitScenes(scenes); err != nil {
		return nil, err
	}
	out := make([]dataset.Tile, len(global))
	for i, g := range global {
		if sc := g / s.tilesPerScene; s.isQuarantined(sc) {
			return nil, fmt.Errorf("pipeline: scene %d was quarantined but the training plan needs its tiles", sc)
		}
		out[i] = s.tileAt(g)
	}
	return out, nil
}

// TrainSamples materializes the plan's training subset (in the batch
// path's order) as train.Sample views — what the ddp trainer, and so
// every shipped training run, consumes.
func (s *Stream) TrainSamples() ([]train.Sample, error) { return s.planSamples(true) }

// TrainLen reports the planned training-sample count — known from index
// math alone, before any scene is labeled.
func (s *Stream) TrainLen() (int, error) {
	if s.plan == nil {
		return 0, fmt.Errorf("pipeline: no TrainPlan configured")
	}
	return len(s.plan.trainTileIdx), nil
}

// TestTiles materializes the plan's held-out subset (batch order). It
// waits only for the scenes the subset touches.
func (s *Stream) TestTiles() ([]dataset.Tile, error) {
	if s.plan == nil {
		return nil, fmt.Errorf("pipeline: no TrainPlan configured")
	}
	return s.gather(s.plan.testTileIdx)
}
