package pipeline

import (
	"fmt"

	"seaice/internal/dataset"
	"seaice/internal/tensor"
	"seaice/internal/train"
)

// TrainBatchesOf returns the stream's double-buffered batch source packed
// in the requested compute precision: a background assembler waits for
// the scenes batch k+1 needs, gathers its tiles, and packs the tensor
// while the trainer computes batch k. Which samples land in which batch
// is precision-independent (pure index math); only the packed tensor's
// element type differs, so a float32 training run streams half the batch
// bytes through the double buffer.
func TrainBatchesOf[S tensor.Scalar](s *Stream) (train.BatchSource[S], error) {
	if s.plan == nil {
		return nil, fmt.Errorf("pipeline: no TrainPlan configured")
	}
	s.ensureStarted()
	return &batchSource[S]{s: s}, nil
}

type batchSource[S tensor.Scalar] struct{ s *Stream }

type packed[S tensor.Scalar] struct {
	pb  *train.PackedBatch[S]
	err error
}

// Epoch implements train.BatchSource. The capacity-1 channel plus the
// producer working one batch ahead is the double buffer: at steady state
// one packed batch waits while the next is being assembled and the
// trainer consumes a third.
func (b *batchSource[S]) Epoch(epoch int) func() (*train.PackedBatch[S], error) {
	s := b.s
	plan := *s.cfg.Plan
	batches := train.BatchIndices(len(s.plan.trainTileIdx), plan.BatchSize, plan.BatchSeed, epoch)

	ch := make(chan packed[S], 1)
	go func() {
		defer close(ch)
		for _, idxs := range batches {
			global := make([]int, len(idxs))
			for i, j := range idxs {
				global[i] = s.plan.trainTileIdx[j]
			}
			tiles, err := s.gather(global)
			var pb *train.PackedBatch[S]
			if err == nil {
				samples := dataset.Samples(tiles, plan.Image, plan.Labels)
				xt, labels, terr := train.ToTensor[S](samples)
				if terr != nil {
					err = terr
				} else {
					pb = &train.PackedBatch[S]{X: xt, Labels: labels}
				}
			}
			select {
			case ch <- packed[S]{pb: pb, err: err}:
			case <-s.quit:
				return
			}
			if err != nil {
				return
			}
		}
	}()

	delivered := 0
	return func() (*train.PackedBatch[S], error) {
		it, ok := <-ch
		if !ok {
			if delivered < len(batches) {
				return nil, s.interruptErr()
			}
			return nil, nil
		}
		if it.err != nil {
			return nil, it.err
		}
		delivered++
		return it.pb, nil
	}
}

// interruptErr explains an epoch that ended before all its batches were
// delivered.
func (s *Stream) interruptErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	return fmt.Errorf("pipeline: batch stream interrupted")
}

// planSamples gathers one of the plan's subsets as training samples.
func (s *Stream) planSamples(trainSubset bool) ([]train.Sample, error) {
	if s.plan == nil {
		return nil, fmt.Errorf("pipeline: no TrainPlan configured")
	}
	idx := s.plan.trainTileIdx
	if !trainSubset {
		idx = s.plan.testTileIdx
	}
	tiles, err := s.gather(idx)
	if err != nil {
		return nil, err
	}
	return dataset.Samples(tiles, s.cfg.Plan.Image, s.cfg.Plan.Labels), nil
}
