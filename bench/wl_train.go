package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"time"

	"seaice/internal/dataset"
	"seaice/internal/ddp"
	"seaice/internal/pipeline"
	"seaice/internal/scene"
	"seaice/internal/train"
	"seaice/internal/unet"
)

// Campaign-train shape: 6 labeled 256² scenes, a stratified 32-tile
// training subset and 128 held-out tiles; one job is one epoch of
// synchronous data-parallel steps.
const (
	trainScenes         = 6
	trainSceneSize      = 256
	trainTiles          = 32
	trainHeldOut        = 128
	trainBatchPerWorker = 4
	// trainEpochsPerSecond sizes the fixed work from -seconds on the
	// reference host (an epoch of 32 tiles, four steps at nproc = 2, is
	// ≈0.22 s there).
	trainEpochsPerSecond = 4.25
	// trainLR is below the 0.01 the CLIs default to: trainings this long on
	// 32 tiles drive the loss to ≈0.02, where Adam at 0.01 can diverge (seed
	// 9: loss 1.4 and held-out accuracy 0.62 after the last five epochs).
	// At 0.004 seeds 1–16 and four others all end between 0.94 and 0.99.
	trainLR = 0.004
	// trainMinAccuracy is the held-out accuracy below which a run is
	// incorrect. Healthy runs reach 0.94–0.99 depending on the seed; a
	// broken optimizer, all-reduce or data path lands far below.
	trainMinAccuracy = 0.90
)

// trainWL is workload campaign-train: label a small campaign, then
// ddp.Trainer.Fit over nproc in-process ranks. Fit runs on its own
// goroutine and is stepped one epoch at a time through Config.Progress,
// which blocks until the next epoch is asked for — so the warm-up epochs,
// the measured window and (on traced runs) the traced half are phases of
// one uninterrupted training run.
type trainWL struct {
	p       params
	trainer *ddp.Trainer[float32]
	heldOut []train.Sample
	epochs  int // total epochs Fit was configured for
	done    int // epochs completed so far

	resume  chan struct{} // main → Fit: run the next epoch
	events  chan float64  // Fit → main: an epoch ended with this loss
	fitDone chan struct{} // closed when Fit has returned; fitErr is then set
	fitErr  error
	losses  []float64 // every epoch's loss, warm-up included
}

func newTrainWL(p params) *trainWL {
	return &trainWL{p: p, resume: make(chan struct{}), events: make(chan float64), fitDone: make(chan struct{})}
}

func (w *trainWL) jobsFor(seconds float64) int {
	return max(1, int(seconds*trainEpochsPerSecond+0.5))
}

func (w *trainWL) warmEpochs() int { return max(1, w.jobsFor(float64(w.p.seconds))/20) }

func (w *trainWL) setup(tr *tracer) error {
	build := dataset.DefaultBuild()
	build.TileSize = labelTile
	build.Workers = w.p.nproc
	col := scene.DefaultCollection(w.p.seed)
	col.Scenes, col.W, col.H = trainScenes, trainSceneSize, trainSceneSize
	var src pipeline.Source = pipeline.CollectionSource{Cfg: col}
	if tr != nil {
		src = &tracedSource{Source: src, tr: tr, parent: noSpan, job: -1, scenes: map[int]*scene.Scene{}}
	}
	stream, err := pipeline.New(src, pipeline.Config{
		Build: build, Workers: w.p.nproc,
		Plan: &pipeline.TrainPlan{
			TrainFrac: 0.6, SplitSeed: w.p.seed,
			TrainTiles: trainTiles, TrainSeed: w.p.seed + 1,
			TestTiles: trainHeldOut, TestSeed: w.p.seed + 2,
			Image: dataset.FilteredImages, Labels: dataset.AutoLabels,
			BatchSize: w.p.nproc * trainBatchPerWorker, BatchSeed: w.p.seed,
		},
	})
	if err != nil {
		return err
	}
	defer stream.Close()
	samples, err := stream.TrainSamples()
	if err != nil {
		return err
	}
	held, err := stream.TestTiles()
	if err != nil {
		return err
	}
	if len(samples) != trainTiles || len(held) != trainHeldOut {
		return fmt.Errorf("plan produced %d train / %d held-out tiles, want %d / %d", len(samples), len(held), trainTiles, trainHeldOut)
	}
	w.heldOut = dataset.Samples(held, dataset.FilteredImages, dataset.ManualLabels)

	w.epochs = w.warmEpochs()
	if w.p.trace {
		w.epochs += w.jobsFor(float64(w.p.seconds)/4) + w.jobsFor(float64(w.p.seconds)/2)
	} else {
		w.epochs += w.jobsFor(float64(w.p.seconds))
	}
	w.trainer, err = ddp.New[float32](unet.FastConfig(w.p.seed), ddp.Config{
		Workers: w.p.nproc, BatchPerWorker: trainBatchPerWorker,
		Epochs: w.epochs, LR: trainLR, Seed: w.p.seed, MasterWeights: true,
		Progress: func(epoch int, loss float64) {
			w.events <- loss
			if epoch < w.epochs-1 {
				<-w.resume
			}
		},
	})
	if err != nil {
		return err
	}
	go func() {
		<-w.resume
		_, w.fitErr = w.trainer.Fit(samples)
		close(w.fitDone)
	}()
	for i := 0; i < w.warmEpochs(); i++ {
		if _, _, _, err := w.epoch(); err != nil {
			return fmt.Errorf("warm-up epoch %d: %w", i, err)
		}
	}
	return nil
}

// epoch lets Fit run one more epoch and returns its loss and wall time.
func (w *trainWL) epoch() (loss float64, start, end time.Time, err error) {
	if w.done >= w.epochs {
		return 0, start, end, fmt.Errorf("all %d configured epochs already ran", w.epochs)
	}
	start = time.Now()
	w.resume <- struct{}{}
	select {
	case loss = <-w.events:
	case <-w.fitDone:
		return 0, start, time.Now(), fmt.Errorf("Fit returned after %d of %d epochs: %v", w.done, w.epochs, w.fitErr)
	}
	end = time.Now()
	w.done++
	w.losses = append(w.losses, loss)
	return loss, start, end, nil
}

func (w *trainWL) run(tr *tracer, seconds float64) (*outcome, error) {
	jobs := w.jobsFor(seconds)
	first := len(w.losses)
	out := openWindow()
	for n := 0; n < jobs; n++ {
		loss, start, end, err := w.epoch()
		out.attempted++
		if err != nil {
			return nil, err
		}
		if math.IsNaN(loss) || math.IsInf(loss, 0) {
			out.fail("epoch %d: loss %v", w.done-1, loss)
			continue
		}
		tr.add("ddp.epoch", start, end, noSpan, w.done-1)
		out.jobMs = append(out.jobMs, ms(end.Sub(start)))
		out.tiles += trainTiles
	}
	out.closeWindow()

	// Verification, after the window. Fit is parked inside Progress (or has
	// returned), so the replicas are quiescent.
	if w.done == w.epochs {
		if <-w.fitDone; w.fitErr != nil {
			return nil, fmt.Errorf("Fit: %w", w.fitErr)
		}
	}
	window := w.losses[first:]
	if k := len(window) / 4; k > 0 && mean(window[len(window)-k:]) >= mean(w.losses[:k]) {
		out.fail("loss did not decrease: first epochs %.4f, last epochs %.4f", mean(w.losses[:k]), mean(window[len(window)-k:]))
	}
	if err := w.replicasAgree(); err != nil {
		out.fail("%v", err)
	}
	conf, err := train.Evaluate(w.trainer.Replica(0), w.heldOut)
	if err != nil {
		return nil, fmt.Errorf("evaluate: %w", err)
	}
	out.quality = conf.Accuracy()
	if w.done == w.epochs && out.quality < trainMinAccuracy {
		out.fail("held-out accuracy %.4f below %.2f", out.quality, trainMinAccuracy)
	}
	if tr != nil {
		batch := w.p.nproc * trainBatchPerWorker
		out.layers["ddp.step_ms"] = median(out.jobMs) / float64((trainTiles+batch-1)/batch)
	}
	return out, nil
}

// replicasAgree checks the data-parallel invariant: after any number of
// synchronous steps every rank holds bit-identical weights.
func (w *trainWL) replicasAgree() error {
	want := weightHash(w.trainer.Replica(0).WeightsF64())
	for r := 1; r < w.p.nproc; r++ {
		if got := weightHash(w.trainer.Replica(r).WeightsF64()); got != want {
			return fmt.Errorf("rank %d weights differ from rank 0", r)
		}
	}
	return nil
}

func weightHash(weights map[string][]float64) [sha256.Size]byte {
	names := make([]string, 0, len(weights))
	for name := range weights {
		names = append(names, name)
	}
	sort.Strings(names)
	h := sha256.New()
	var buf [8]byte
	for _, name := range names {
		h.Write([]byte(name))
		for _, v := range weights[name] {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// close lets a parked Fit run out its remaining epochs' worth of Progress
// calls and waits for its goroutine.
func (w *trainWL) close() {
	if w.trainer == nil {
		return
	}
	for {
		select {
		case <-w.fitDone:
			return
		case <-w.events:
		case w.resume <- struct{}{}:
		}
	}
}
