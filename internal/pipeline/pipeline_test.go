package pipeline

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"seaice/internal/dataset"
	"seaice/internal/ddp"
	"seaice/internal/scene"
	"seaice/internal/tensor"
	"seaice/internal/train"
	"seaice/internal/unet"
)

// batchBuildSet is the reference the streaming pipeline is held to: it
// materializes every scene of src, then runs the batch dataset.Build.
func batchBuildSet(src Source, build dataset.BuildConfig) (*dataset.Set, error) {
	scenes := make([]*scene.Scene, src.Len())
	for i := range scenes {
		sc, err := src.SceneAt(i)
		if err != nil {
			return nil, fmt.Errorf("pipeline: scene %d: %w", i, err)
		}
		scenes[i] = sc
	}
	return dataset.Build(scenes, build)
}

// testCampaign is a small campaign: 4 scenes of 64², tile 16 → 16 tiles
// per scene, 64 tiles total.
func testCampaign(seed uint64) scene.CollectionConfig {
	cc := scene.DefaultCollection(seed)
	cc.Scenes = 4
	cc.W, cc.H = 64, 64
	return cc
}

func testBuild() dataset.BuildConfig {
	b := dataset.DefaultBuild()
	b.TileSize = 16
	b.Workers = 2
	return b
}

func tilesEqual(t *testing.T, ctx string, a, b dataset.Tile) {
	t.Helper()
	if !bytes.Equal(a.Original.Pix, b.Original.Pix) {
		t.Fatalf("%s: Original differs", ctx)
	}
	if !bytes.Equal(a.Filtered.Pix, b.Filtered.Pix) {
		t.Fatalf("%s: Filtered differs", ctx)
	}
	if !slices.Equal(a.Manual.Pix, b.Manual.Pix) {
		t.Fatalf("%s: Manual differs", ctx)
	}
	if !slices.Equal(a.Auto.Pix, b.Auto.Pix) {
		t.Fatalf("%s: Auto differs", ctx)
	}
	if a.CloudFraction != b.CloudFraction {
		t.Fatalf("%s: CloudFraction %v vs %v", ctx, a.CloudFraction, b.CloudFraction)
	}
	if a.Scene != b.Scene {
		t.Fatalf("%s: Scene %d vs %d", ctx, a.Scene, b.Scene)
	}
}

func setsEqual(t *testing.T, ctx string, a, b *dataset.Set) {
	t.Helper()
	if a.TileSize != b.TileSize || len(a.Tiles) != len(b.Tiles) {
		t.Fatalf("%s: shape mismatch: tile %d/%d, n %d/%d", ctx, a.TileSize, b.TileSize, len(a.Tiles), len(b.Tiles))
	}
	for i := range a.Tiles {
		tilesEqual(t, fmt.Sprintf("%s: tile %d", ctx, i), a.Tiles[i], b.Tiles[i])
	}
}

// TestStreamParityWithLegacy asserts the streaming pipeline's Set is
// byte-identical to the legacy batch path at several shard and worker
// counts — the acceptance property of the PR.
func TestStreamParityWithLegacy(t *testing.T) {
	src := CollectionSource{Cfg: testCampaign(3)}
	want, err := batchBuildSet(src, testBuild())
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 2, 3, 4} {
		for _, workers := range []int{1, 3} {
			cfg := Config{Build: testBuild(), Shards: shards, Workers: workers}
			got, err := StreamBuilder{Config: cfg}.BuildSet(src)
			if err != nil {
				t.Fatalf("shards=%d workers=%d: %v", shards, workers, err)
			}
			setsEqual(t, fmt.Sprintf("shards=%d workers=%d", shards, workers), got, want)
		}
	}
}

// sceneSlice is a Source over pre-built scenes, declaring the size of
// the first.
type sceneSlice []*scene.Scene

func (s sceneSlice) Len() int                            { return len(s) }
func (s sceneSlice) Size() (w, h int)                    { return s[0].Image.W, s[0].Image.H }
func (s sceneSlice) SceneAt(i int) (*scene.Scene, error) { return s[i], nil }
func (s sceneSlice) Fingerprint() string                 { return "slice" }

// TestMixedSizeSliceRejected: a source whose scenes disagree on
// dimensions must fail cleanly instead of misaddressing tiles.
func TestMixedSizeSliceRejected(t *testing.T) {
	small := testCampaign(3)
	big := testCampaign(3)
	big.W, big.H = 128, 128
	a, err := scene.GenerateAt(small, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := scene.GenerateAt(big, 1)
	if err != nil {
		t.Fatal(err)
	}
	builder := StreamBuilder{Config: Config{Build: testBuild(), Workers: 2}}
	if _, err := builder.BuildSet(sceneSlice{a, b}); err == nil {
		t.Fatal("mixed-size source should fail")
	}
}

// TestSplitSubsampleIndexParity pins the index-level helpers to the
// tile-level legacy functions they were factored from.
func TestSplitSubsampleIndexParity(t *testing.T) {
	src := CollectionSource{Cfg: testCampaign(5)}
	set, err := batchBuildSet(src, testBuild())
	if err != nil {
		t.Fatal(err)
	}
	trainTiles, testTiles, err := set.Split(0.8, 9)
	if err != nil {
		t.Fatal(err)
	}
	trainIdx, testIdx, err := dataset.SplitIndices(len(set.Tiles), 0.8, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(trainIdx) != len(trainTiles) || len(testIdx) != len(testTiles) {
		t.Fatalf("split sizes: %d/%d vs %d/%d", len(trainIdx), len(testIdx), len(trainTiles), len(testTiles))
	}
	for i, idx := range trainIdx {
		tilesEqual(t, fmt.Sprintf("train %d", i), set.Tiles[idx], trainTiles[i])
	}
	for i, idx := range testIdx {
		tilesEqual(t, fmt.Sprintf("test %d", i), set.Tiles[idx], testTiles[i])
	}

	sub := dataset.Subsample(trainTiles, 10, 7)
	subIdx := dataset.SubsampleIndices(len(trainTiles), 10, 7)
	if len(sub) != len(subIdx) {
		t.Fatalf("subsample sizes: %d vs %d", len(sub), len(subIdx))
	}
	for i, idx := range subIdx {
		tilesEqual(t, fmt.Sprintf("sub %d", i), trainTiles[idx], sub[i])
	}
}

// planForTest mirrors the legacy seaice-train flow: 80/20 split, capped
// train subset, auto labels.
func planForTest(seed uint64) *TrainPlan {
	return &TrainPlan{
		TrainFrac: 0.8, SplitSeed: seed,
		TrainTiles: 24, TrainSeed: seed,
		TestTiles: 12, TestSeed: seed + 1,
		Image: dataset.OriginalImages, Labels: dataset.AutoLabels,
		BatchSize: 6, BatchSeed: seed,
	}
}

// legacySamples replays the legacy path for the same plan.
func legacySamples(t *testing.T, src Source, plan *TrainPlan) (trainS []train.Sample, testTiles []dataset.Tile) {
	t.Helper()
	set, err := batchBuildSet(src, testBuild())
	if err != nil {
		t.Fatal(err)
	}
	trainT, testT, err := set.Split(plan.TrainFrac, plan.SplitSeed)
	if err != nil {
		t.Fatal(err)
	}
	trainT = dataset.Subsample(trainT, plan.TrainTiles, plan.TrainSeed)
	testT = dataset.Subsample(testT, plan.TestTiles, plan.TestSeed)
	return dataset.Samples(trainT, plan.Image, plan.Labels), testT
}

// TestStreamedTrainingParity trains three models on one plan — the
// in-memory train.Fit reference, train.FitStream over the double-buffered
// batch stream, and the ddp trainer at world 1 over the stream's
// TrainSamples, the path seaice-train runs — and requires exactly equal
// per-epoch losses and weights, in float64 and in float32 with float64
// master weights.
func TestStreamedTrainingParity(t *testing.T) {
	t.Run("f64", func(t *testing.T) { streamedTrainingParity[float64](t, false) })
	t.Run("f32-mixed", func(t *testing.T) { streamedTrainingParity[float32](t, true) })
}

func streamedTrainingParity[S tensor.Scalar](t *testing.T, master bool) {
	src := CollectionSource{Cfg: testCampaign(7)}
	plan := planForTest(7)
	wantSamples, wantTest := legacySamples(t, src, plan)

	modelCfg := unet.Config{Depth: 2, BaseChannels: 4, InChannels: 3, Classes: 3, DropoutRate: 0, Seed: 11}
	trainCfg := train.Config{Epochs: 2, BatchSize: plan.BatchSize, LR: 0.01, Seed: plan.BatchSeed, MasterWeights: master}

	ref, err := unet.New[S](modelCfg)
	if err != nil {
		t.Fatal(err)
	}
	refRes, err := train.Fit(ref, wantSamples, trainCfg)
	if err != nil {
		t.Fatal(err)
	}

	st, err := New(src, Config{Build: testBuild(), Shards: 2, Workers: 2, Plan: plan})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	batches, err := TrainBatchesOf[S](st)
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := unet.New[S](modelCfg)
	if err != nil {
		t.Fatal(err)
	}
	streamedRes, err := train.FitStream(streamed, batches, trainCfg)
	if err != nil {
		t.Fatal(err)
	}

	samples, err := st.TrainSamples()
	if err != nil {
		t.Fatal(err)
	}
	tr, err := ddp.New[S](modelCfg, ddp.Config{
		Workers: 1, BatchPerWorker: plan.BatchSize, Epochs: trainCfg.Epochs,
		LR: trainCfg.LR, Seed: plan.BatchSeed, MasterWeights: master,
	})
	if err != nil {
		t.Fatal(err)
	}
	ddpRes, err := tr.Fit(samples)
	if err != nil {
		t.Fatal(err)
	}
	ddpLosses := make([]float64, len(ddpRes.Epochs))
	for e, ep := range ddpRes.Epochs {
		ddpLosses[e] = ep.Loss
	}

	for _, got := range []struct {
		name   string
		losses []float64
		steps  int
		model  *unet.Model[S]
	}{
		{"FitStream", streamedRes.EpochLosses, streamedRes.Steps, streamed},
		{"ddp", ddpLosses, ddpRes.Steps, tr.Replica(0)},
	} {
		if !slices.Equal(got.losses, refRes.EpochLosses) || got.steps != refRes.Steps {
			t.Fatalf("%s: epoch losses %v over %d steps, Fit %v over %d", got.name, got.losses, got.steps, refRes.EpochLosses, refRes.Steps)
		}
		refP, gotP := ref.Params(), got.model.Params()
		for i := range refP {
			for j := range refP[i].W.Data {
				if refP[i].W.Data[j] != gotP[i].W.Data[j] {
					t.Fatalf("%s: param %s[%d] differs", got.name, refP[i].Name, j)
				}
			}
		}
	}

	// The held-out subset matches the legacy order too.
	gotTest, err := st.TestTiles()
	if err != nil {
		t.Fatal(err)
	}
	if len(gotTest) != len(wantTest) {
		t.Fatalf("test tiles: %d vs %d", len(gotTest), len(wantTest))
	}
	for i := range gotTest {
		tilesEqual(t, fmt.Sprintf("test tile %d", i), gotTest[i], wantTest[i])
	}
}

// countingSource counts SceneAt calls, to observe checkpoint reuse.
type countingSource struct {
	Source
	calls atomic.Int64
}

func (c *countingSource) SceneAt(i int) (*scene.Scene, error) {
	c.calls.Add(1)
	return c.Source.SceneAt(i)
}

// TestCheckpointResume runs a stream with a checkpoint directory, then a
// second stream over the same source: the second run must restore every
// shard without touching the source, and emit identical tiles. A third
// run with a different tile size must ignore the stale checkpoints.
func TestCheckpointResume(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ckpt")
	src := &countingSource{Source: CollectionSource{Cfg: testCampaign(9)}}
	cfg := Config{Build: testBuild(), Shards: 2, Workers: 2, CheckpointDir: dir}

	first, err := StreamBuilder{Config: cfg}.BuildSet(src)
	if err != nil {
		t.Fatal(err)
	}
	if src.calls.Load() == 0 {
		t.Fatal("first run should render scenes")
	}
	files, _ := os.ReadDir(dir)
	if len(files) != 2 {
		t.Fatalf("want 2 shard files, got %d", len(files))
	}

	src.calls.Store(0)
	var resumes int
	cfg2 := cfg
	cfg2.Progress = func(ev Event) {
		if ev.Kind == "resume" {
			resumes++
		}
	}
	second, err := StreamBuilder{Config: cfg2}.BuildSet(src)
	if err != nil {
		t.Fatal(err)
	}
	if n := src.calls.Load(); n != 0 {
		t.Fatalf("resume rendered %d scenes, want 0", n)
	}
	if resumes != 2 {
		t.Fatalf("want 2 resume events, got %d", resumes)
	}
	setsEqual(t, "resumed", second, first)

	// Different build config ⇒ checkpoints must not match.
	src.calls.Store(0)
	cfg3 := cfg
	cfg3.Build.TileSize = 32
	b3 := StreamBuilder{Config: cfg3}
	if _, err := b3.BuildSet(src); err != nil {
		t.Fatal(err)
	}
	if src.calls.Load() == 0 {
		t.Fatal("mismatched checkpoints were wrongly reused")
	}
}

// failingSource errors on one scene.
type failingSource struct{ Source }

func (f failingSource) SceneAt(i int) (*scene.Scene, error) {
	if i == 2 {
		return nil, fmt.Errorf("synthetic failure")
	}
	return f.Source.SceneAt(i)
}

// TestErrorPropagation: a failing scene fails Set and the batch stream
// with the underlying error rather than hanging.
func TestErrorPropagation(t *testing.T) {
	src := failingSource{Source: CollectionSource{Cfg: testCampaign(11)}}
	b := StreamBuilder{Config: Config{Build: testBuild(), Workers: 2}}
	if _, err := b.BuildSet(src); err == nil {
		t.Fatal("Set should fail")
	}

	plan := planForTest(11)
	st, err := New(src, Config{Build: testBuild(), Workers: 2, Plan: plan})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	batches, err := TrainBatchesOf[float64](st)
	if err != nil {
		t.Fatal(err)
	}
	next := batches.Epoch(0)
	for {
		pb, err := next()
		if err != nil {
			return // propagated — good
		}
		if pb == nil {
			t.Fatal("epoch ended without surfacing the failure")
		}
	}
}

// panickySource panics on one scene — the failure mode of a bug inside
// a stage worker.
type panickySource struct{ Source }

func (p panickySource) SceneAt(i int) (*scene.Scene, error) {
	if i == 1 {
		panic("synthetic stage-worker panic")
	}
	return p.Source.SceneAt(i)
}

// TestWorkerPanicFailsStream: a panic inside a stage worker must fail
// the stream (pool.Map converts it to an error) rather than leaving
// consumers blocked forever on scenes that will never arrive.
func TestWorkerPanicFailsStream(t *testing.T) {
	src := panickySource{Source: CollectionSource{Cfg: testCampaign(17)}}
	done := make(chan error, 1)
	go func() {
		builder := StreamBuilder{Config: Config{Build: testBuild(), Workers: 2}}
		_, err := builder.BuildSet(src)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Set should fail after a worker panic")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("stream hung after worker panic")
	}
}

// TestSchedulePrioritizesFirstBatches: with a plan, every scene feeding
// epoch-0 batch 0 is scheduled before any scene first needed by a later
// batch.
func TestSchedulePrioritizesFirstBatches(t *testing.T) {
	plan := planForTest(13)
	st, err := New(CollectionSource{Cfg: testCampaign(13)}, Config{Build: testBuild(), Plan: plan})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	pos := make([]int, st.n)
	for p, idx := range st.order {
		pos[idx] = p
	}
	for _, early := range st.plan.batchScenes[0] {
		for later := 0; later < st.n; later++ {
			if st.plan.priority[later] > st.plan.priority[early] && pos[later] < pos[early] {
				t.Fatalf("scene %d (batch %d) scheduled before scene %d (batch %d)",
					later, st.plan.priority[later], early, st.plan.priority[early])
			}
		}
	}
}
