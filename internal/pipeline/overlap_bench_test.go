package pipeline

import (
	"fmt"
	"testing"
	"time"

	"seaice/internal/dataset"
	"seaice/internal/scene"
	"seaice/internal/train"
	"seaice/internal/unet"
)

// BenchmarkLabelStageScene measures the real cost of one scene's worth
// of the label stage (generate + filter + auto-label + tile) at the
// seaice-train default scale (256² scene, 32² tiles). This is the
// calibration input for the modeled-latency overlap benchmark below and
// for BENCH_pipeline.json.
func BenchmarkLabelStageScene(b *testing.B) {
	cc := scene.DefaultCollection(7)
	cc.Scenes = 12
	cc.W, cc.H = 256, 256
	build := dataset.DefaultBuild()
	build.TileSize = 32
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc, err := scene.GenerateAt(cc, i%cc.Scenes)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := dataset.BuildScene(sc, i%cc.Scenes, build); err != nil {
			b.Fatal(err)
		}
	}
}

// sleepSource models the per-scene acquisition cost (generation here; a
// GEE download in the paper's workflow) with a fixed latency on top of a
// trivially small real scene (32², so real compute is negligible).
// Sleeping stages genuinely overlap on any host — including this
// single-core container — so the measured wall-clock isolates what the
// pipeline's concurrency structure buys from what the host's core count
// buys. Latencies are calibrated at 1/10 of the real 256²-scene stage
// costs measured by the benchmarks above (methodology and real numbers
// in BENCH_pipeline.json).
type sleepSource struct {
	CollectionSource
	perScene time.Duration
}

func (s sleepSource) SceneAt(i int) (*scene.Scene, error) {
	time.Sleep(s.perScene)
	return s.CollectionSource.SceneAt(i)
}

// overlapWorkload is the paper-shaped acceptance workload at 1/10 time
// scale: 66 scenes (the Ross Sea campaign size) whose per-scene label
// stage costs 24ms here (≈240ms real at 256², BenchmarkLabelStageScene),
// and 8 training epochs whose steps cost 1ms here (≈10ms real per
// FastConfig step on 32² tiles, cf. BenchmarkTrainStep at 64²).
type overlapWorkload struct {
	scenes   int
	perScene time.Duration
	epochs   int
	batch    int
	perStep  time.Duration
	workers  int
}

func acceptanceWorkload(workers int) overlapWorkload {
	return overlapWorkload{
		scenes:   66,
		perScene: 24 * time.Millisecond,
		epochs:   8,
		batch:    8,
		perStep:  1 * time.Millisecond,
		workers:  workers,
	}
}

func (w overlapWorkload) stream(b *testing.B) *Stream {
	b.Helper()
	cc := scene.DefaultCollection(7)
	cc.Scenes = w.scenes
	cc.W, cc.H = 32, 32
	build := dataset.DefaultBuild()
	build.TileSize = 16
	st, err := New(sleepSource{CollectionSource{Cfg: cc}, w.perScene}, Config{
		Build:   build,
		Workers: w.workers,
		Shards:  4,
		Plan: &TrainPlan{
			TrainFrac: 0.8, SplitSeed: 7,
			Image: dataset.OriginalImages, Labels: dataset.AutoLabels,
			BatchSize: w.batch, BatchSeed: 7,
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	return st
}

// consumeEpochs performs the modeled training: pull every batch of every
// epoch from the stream's double-buffered assembler and sleep the
// per-step cost in its place.
func (w overlapWorkload) consumeEpochs(b *testing.B, st *Stream) {
	b.Helper()
	bs, err := TrainBatchesOf[float64](st)
	if err != nil {
		b.Fatal(err)
	}
	for e := 0; e < w.epochs; e++ {
		next := bs.Epoch(e)
		for {
			pb, err := next()
			if err != nil {
				b.Fatal(err)
			}
			if pb == nil {
				break
			}
			time.Sleep(w.perStep)
		}
	}
}

// runLegacySerial is the run-stages-serially baseline — the exact shape
// this PR replaced: every scene is fetched/generated sequentially
// (scene.GenerateCollection and batchBuildSet materialize the campaign
// one scene at a time), the batch dataset.Build then filters and labels,
// and only then does training start. The per-step training cost is
// modeled with the same sleeps as the pipelined run, over the identical
// deterministic batch schedule.
func runLegacySerial(b *testing.B, w overlapWorkload) time.Duration {
	b.Helper()
	cc := scene.DefaultCollection(7)
	cc.Scenes = w.scenes
	cc.W, cc.H = 32, 32
	build := dataset.DefaultBuild()
	build.TileSize = 16
	build.Workers = w.workers
	src := sleepSource{CollectionSource{Cfg: cc}, w.perScene}

	start := time.Now()
	set, err := batchBuildSet(src, build)
	if err != nil {
		b.Fatal(err)
	}
	trainTiles, _, err := set.Split(0.8, 7)
	if err != nil {
		b.Fatal(err)
	}
	for e := 0; e < w.epochs; e++ {
		for range train.BatchIndices(len(trainTiles), w.batch, 7, e) {
			time.Sleep(w.perStep)
		}
	}
	return time.Since(start)
}

// runStagewiseSerial is the conservative baseline: the same Stream (so
// the label stage already runs on w.workers concurrent workers), but
// drained to completion before any training step — stages in sequence,
// stage-internal parallelism kept. Identical code to runPipelined except
// for the ordering, so the delta against it is pure stage overlap.
func runStagewiseSerial(b *testing.B, w overlapWorkload) time.Duration {
	b.Helper()
	st := w.stream(b)
	defer st.Close()
	start := time.Now()
	if _, err := st.Set(); err != nil {
		b.Fatal(err)
	}
	w.consumeEpochs(b, st)
	return time.Since(start)
}

// runPipelined overlaps the stages: training consumes batches while
// later shards are still being labeled; the final Set drains whatever
// tail the training epochs did not already force.
func runPipelined(b *testing.B, w overlapWorkload) time.Duration {
	b.Helper()
	st := w.stream(b)
	defer st.Close()
	start := time.Now()
	w.consumeEpochs(b, st)
	if _, err := st.Set(); err != nil {
		b.Fatal(err)
	}
	return time.Since(start)
}

// BenchmarkPipelineOverlap reports modeled end-to-end label+train
// wall-clock:
//
//   - legacy-serial: the replaced run-stages-serially shape (sequential
//     scene materialization, batch build, then training) — the
//     acceptance baseline;
//   - stagewise-serial: the new machinery with stages forced into
//     sequence (isolates pure overlap from stage-internal parallelism);
//   - pipelined: stages overlapped.
//
// The acceptance criterion is pipelined-vs-legacy-serial at 4 workers
// (≥1.3×); recorded numbers live in BENCH_pipeline.json.
func BenchmarkPipelineOverlap(b *testing.B) {
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("legacy-serial/workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				d := runLegacySerial(b, acceptanceWorkload(workers))
				b.ReportMetric(d.Seconds(), "wall-s/op")
			}
		})
		b.Run(fmt.Sprintf("stagewise-serial/workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				d := runStagewiseSerial(b, acceptanceWorkload(workers))
				b.ReportMetric(d.Seconds(), "wall-s/op")
			}
		})
		b.Run(fmt.Sprintf("pipelined/workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				d := runPipelined(b, acceptanceWorkload(workers))
				b.ReportMetric(d.Seconds(), "wall-s/op")
			}
		})
	}
}

func mustModel(b *testing.B, cfg unet.Config) *unet.Model[float64] {
	b.Helper()
	m, err := unet.New[float64](cfg)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkPipelineEndToEndReal is the same comparison on real compute
// (no modeled latencies): 6 scenes of 128², tile 32, 2 epochs of a small
// U-Net. On a single-core host every stage is CPU-bound, so the ratio is
// ≈1×; on multi-core hosts the label stage parallelizes and overlaps
// with training. Recorded alongside the modeled numbers for honesty.
func BenchmarkPipelineEndToEndReal(b *testing.B) {
	cc := scene.DefaultCollection(7)
	cc.Scenes = 6
	cc.W, cc.H = 128, 128
	build := dataset.DefaultBuild()
	build.TileSize = 32
	modelCfg := unet.Config{Depth: 2, BaseChannels: 4, InChannels: 3, Classes: 3, Seed: 11}
	trainCfg := train.Config{Epochs: 2, BatchSize: 8, LR: 0.01, Seed: 7}
	plan := &TrainPlan{
		TrainFrac: 0.8, SplitSeed: 7,
		TrainTiles: 48, TrainSeed: 7,
		Image: dataset.OriginalImages, Labels: dataset.AutoLabels,
		BatchSize: 8, BatchSeed: 7,
	}

	b.Run("serial-stages", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			src := CollectionSource{Cfg: cc}
			set, err := batchBuildSet(src, build)
			if err != nil {
				b.Fatal(err)
			}
			trainTiles, _, err := set.Split(plan.TrainFrac, plan.SplitSeed)
			if err != nil {
				b.Fatal(err)
			}
			trainTiles = dataset.Subsample(trainTiles, plan.TrainTiles, plan.TrainSeed)
			m := mustModel(b, modelCfg)
			samples := dataset.Samples(trainTiles, plan.Image, plan.Labels)
			if _, err := train.Fit(m, samples, trainCfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pipelined", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			st, err := New(CollectionSource{Cfg: cc}, Config{Build: build, Workers: 4, Plan: plan})
			if err != nil {
				b.Fatal(err)
			}
			bs, err := TrainBatchesOf[float64](st)
			if err != nil {
				b.Fatal(err)
			}
			m := mustModel(b, modelCfg)
			if _, err := train.FitStream(m, bs, trainCfg); err != nil {
				b.Fatal(err)
			}
			st.Close()
		}
	})
}
