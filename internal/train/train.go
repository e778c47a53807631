// Package train provides the training machinery the data-parallel
// trainer (internal/ddp) is built on: deterministic batch iteration over
// tile datasets, the numeric anomaly guard, and evaluation against ground
// truth. Fit and FitStream are a serial reference loop: the ddp trainer
// at world size 1 is tested against them bit for bit, and the benchmark
// harness (bench/) drives them; no shipped command trains through them.
//
// Determinism guarantees (precision-scoped): the batch schedule is pure
// index math (BatchIndices) seeded per epoch, and Fit is defined as
// FitStream over the in-memory batcher — so a streamed run
// (internal/pipeline) and an in-memory run at the same precision execute
// the identical update sequence and produce bit-identical weights; what
// overlaps with the optimizer steps is the only difference. Training is
// generic over the compute precision: float64 is the reference path, and
// float32 (with Config.MasterWeights keeping float64 master copies in
// Adam — mixed precision) tracks it within the tolerance asserted by
// TestMixedPrecisionLossParity while remaining bit-deterministic at any
// worker count. Products that feed a sum are rounded explicitly
// (float64(a*b)), so no target fuses them into a multiply-add
// (scripts/nofma.sh checks this on arm64).
package train

import (
	"fmt"
	"math"

	"seaice/internal/metrics"
	"seaice/internal/nn"
	"seaice/internal/noise"
	"seaice/internal/raster"
	"seaice/internal/tensor"
	"seaice/internal/unet"
)

// Sample is one training tile: an RGB image and its per-pixel labels.
type Sample struct {
	Image  *raster.RGB
	Labels *raster.Labels
}

// ToTensor packs samples into an (N,3,H,W) input tensor (channels scaled
// to [0,1]) and a flat label slice. All samples must share dimensions.
func ToTensor[S tensor.Scalar](samples []Sample) (*tensor.Tensor[S], []uint8, error) {
	if len(samples) == 0 {
		return nil, nil, fmt.Errorf("train: empty batch")
	}
	w, h := samples[0].Image.W, samples[0].Image.H
	x := tensor.New[S](len(samples), 3, h, w)
	labels := make([]uint8, len(samples)*h*w)
	plane := h * w
	for si, s := range samples {
		if s.Image.W != w || s.Image.H != h {
			return nil, nil, fmt.Errorf("train: sample %d is %dx%d, batch is %dx%d", si, s.Image.W, s.Image.H, w, h)
		}
		if s.Labels.W != w || s.Labels.H != h {
			return nil, nil, fmt.Errorf("train: sample %d labels are %dx%d, image is %dx%d", si, s.Labels.W, s.Labels.H, w, h)
		}
		for p := 0; p < plane; p++ {
			x.Data[(si*3+0)*plane+p] = S(s.Image.Pix[3*p]) / 255
			x.Data[(si*3+1)*plane+p] = S(s.Image.Pix[3*p+1]) / 255
			x.Data[(si*3+2)*plane+p] = S(s.Image.Pix[3*p+2]) / 255
			labels[si*plane+p] = uint8(s.Labels.Pix[p])
		}
	}
	return x, labels, nil
}

// Batcher yields shuffled mini-batches, reshuffling every epoch with a
// deterministic per-epoch permutation (the dataloader of §IV-A).
type Batcher struct {
	samples   []Sample
	batchSize int
	seed      uint64
}

// NewBatcher wraps a dataset; batchSize must be positive.
func NewBatcher(samples []Sample, batchSize int, seed uint64) (*Batcher, error) {
	if batchSize <= 0 {
		return nil, fmt.Errorf("train: batch size %d", batchSize)
	}
	if len(samples) == 0 {
		return nil, fmt.Errorf("train: empty dataset")
	}
	return &Batcher{samples: samples, batchSize: batchSize, seed: seed}, nil
}

// NumBatches returns batches per epoch (the final short batch is kept).
func (b *Batcher) NumBatches() int {
	return (len(b.samples) + b.batchSize - 1) / b.batchSize
}

// Len returns the dataset size.
func (b *Batcher) Len() int { return len(b.samples) }

// BatchIndices returns the deterministic sample-index batches of one
// epoch for a dataset of n samples — the index math behind Batcher.Epoch,
// exposed so the streaming pipeline (internal/pipeline) can compute which
// samples batch k of epoch e needs before the data exists. Both paths use
// this one function, so they agree by construction.
func BatchIndices(n, batchSize int, seed uint64, epoch int) [][]int {
	rng := noise.NewRNG(seed, uint64(epoch)+0xba7c4)
	perm := rng.Perm(n)
	var out [][]int
	for lo := 0; lo < len(perm); lo += batchSize {
		hi := lo + batchSize
		if hi > len(perm) {
			hi = len(perm)
		}
		out = append(out, perm[lo:hi])
	}
	return out
}

// Epoch returns the shuffled batches of the given epoch.
func (b *Batcher) Epoch(epoch int) [][]Sample {
	var out [][]Sample
	for _, idx := range BatchIndices(len(b.samples), b.batchSize, b.seed, epoch) {
		batch := make([]Sample, len(idx))
		for i, j := range idx {
			batch[i] = b.samples[j]
		}
		out = append(out, batch)
	}
	return out
}

// Config controls serial training.
type Config struct {
	Epochs    int
	BatchSize int
	LR        float64
	Seed      uint64
	// MasterWeights keeps float64 master copies of the weights in the
	// optimizer — the mixed-precision recipe for float32 training. It has
	// no effect on the float64 path (the master would equal the weights).
	MasterWeights bool
	// Focal, if non-nil, trains with the focal loss at these parameters
	// instead of plain softmax cross-entropy — the class-imbalance
	// recipe for scenes where thin ice is rare. nil keeps the default
	// criterion already set on the model.
	Focal *nn.FocalParams
	// Progress, if non-nil, receives per-epoch mean loss.
	Progress func(epoch int, loss float64)
}

// Result summarizes a training run.
type Result struct {
	EpochLosses []float64
	Steps       int
}

// PackedBatch is one tensor-ready mini-batch: the (N,3,H,W) input and the
// flat label vector ToTensor produces.
type PackedBatch[S tensor.Scalar] struct {
	X      *tensor.Tensor[S]
	Labels []uint8
}

// BatchSource yields the deterministic mini-batch sequence of each epoch.
// Implementations may assemble batches concurrently with consumption —
// the streaming pipeline's double-buffered assembler packs batch k+1
// while the trainer computes batch k — but the sequence of batches an
// epoch yields must not depend on timing.
type BatchSource[S tensor.Scalar] interface {
	// Epoch returns a pull iterator over the epoch's packed batches; the
	// iterator returns (nil, nil) after the last batch. Each epoch must
	// be fully drained before the next is opened.
	Epoch(epoch int) func() (*PackedBatch[S], error)
}

// batcherSource adapts the in-memory Batcher to BatchSource, packing each
// batch on demand. Fit runs on this adapter, so the streaming and
// in-memory training paths execute the identical update sequence.
type batcherSource[S tensor.Scalar] struct{ b *Batcher }

func (s batcherSource[S]) Epoch(epoch int) func() (*PackedBatch[S], error) {
	batches := s.b.Epoch(epoch)
	next := 0
	return func() (*PackedBatch[S], error) {
		if next >= len(batches) {
			return nil, nil
		}
		x, labels, err := ToTensor[S](batches[next])
		if err != nil {
			return nil, err
		}
		next++
		return &PackedBatch[S]{X: x, Labels: labels}, nil
	}
}

// CheckLR rejects a learning rate that is not a positive finite number:
// zero trains nothing, a negative one climbs the gradient, NaN and +Inf
// destroy the weights on the first step. Fit, FitStream and the ddp
// trainers call it; the CLIs call it before generating any scene.
func CheckLR(lr float64) error {
	if !(lr > 0) || math.IsInf(lr, 1) {
		return fmt.Errorf("train: learning rate %g", lr)
	}
	return nil
}

// Fit trains the model on the samples with Adam, serially — the
// reference the ddp trainer at world size 1 is tested against and a
// benchmark entry point, with no shipped caller.
func Fit[S tensor.Scalar](m *unet.Model[S], samples []Sample, cfg Config) (*Result, error) {
	batcher, err := NewBatcher(samples, cfg.BatchSize, cfg.Seed)
	if err != nil {
		return nil, err
	}
	return FitStream(m, batcherSource[S]{batcher}, cfg)
}

// FitStream trains the model from a BatchSource. The batch sequence — and
// therefore the trained weights — is identical to Fit on the equivalent
// in-memory dataset; only where the batches come from (and what overlaps
// with the optimizer steps) differs. Like Fit it is the serial reference
// and a benchmark entry point, with no shipped caller. cfg.BatchSize and cfg.Seed are
// carried by the source (e.g. pipeline.TrainPlan's BatchSize/BatchSeed)
// and ignored here.
func FitStream[S tensor.Scalar](m *unet.Model[S], src BatchSource[S], cfg Config) (*Result, error) {
	if cfg.Epochs <= 0 {
		return nil, fmt.Errorf("train: epochs %d", cfg.Epochs)
	}
	if err := CheckLR(cfg.LR); err != nil {
		return nil, err
	}
	if cfg.Focal != nil {
		m.SetCriterion(nn.NewFocal[S](*cfg.Focal))
	}
	params := m.Params()
	opt := nn.NewAdam[S](cfg.LR)
	opt.Master = cfg.MasterWeights
	res := &Result{}
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		total, n := 0.0, 0
		next := src.Epoch(epoch)
		for {
			batch, err := next()
			if err != nil {
				return nil, err
			}
			if batch == nil {
				break
			}
			nn.ZeroGrads(params)
			loss, err := m.LossAndGrad(batch.X, batch.Labels)
			if err != nil {
				return nil, err
			}
			opt.Step(params)
			total += loss
			n++
			res.Steps++
		}
		if n == 0 {
			return nil, fmt.Errorf("train: epoch %d yielded no batches", epoch)
		}
		mean := total / float64(n)
		res.EpochLosses = append(res.EpochLosses, mean)
		if cfg.Progress != nil {
			cfg.Progress(epoch, mean)
		}
	}
	return res, nil
}

// Evaluate predicts every sample and accumulates a confusion matrix
// against the provided ground truth (which may differ from the labels
// the model was trained on — e.g. U-Net-Auto validated against manual
// labels). Prediction runs through a unet.Session — the fused-kernel
// buffer-reusing inference engine. Tile sizes the session rejects (not
// divisible by 2^Depth) are reported as errors; the training-path
// forward has the identical requirement, so there is no slower shape to
// fall back to (it would panic in the pooling layers).
func Evaluate[S tensor.Scalar](m *unet.Model[S], samples []Sample) (*metrics.Confusion, error) {
	conf := metrics.NewConfusion(int(raster.NumClasses))
	sess := unet.NewSession(m)
	for i := range samples {
		x, labels, err := ToTensor[S](samples[i : i+1])
		if err != nil {
			return nil, err
		}
		pred, err := sess.Predict(x)
		if err != nil {
			return nil, err
		}
		for p, want := range labels {
			if err := conf.Add(raster.Class(want), raster.Class(pred[p])); err != nil {
				return nil, fmt.Errorf("train: evaluate sample %d: %w", i, err)
			}
		}
	}
	return conf, nil
}
