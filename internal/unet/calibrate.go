package unet

import (
	"fmt"
	"math"

	"seaice/internal/raster"
	"seaice/internal/tensor"
)

// Calibration holds the observed activation range of every quantizable
// stage of the network, gathered by running the float64 master on
// representative tiles. It is the bridge between the float model and its
// int8 rendering: Quantize turns each range into an activation
// scale/zero-point via tensor.ActParams.
type Calibration struct {
	// Ranges maps stage name (the producing layer's name: "enc0.conv1",
	// "up2", "dec0.conv2", …) to the observed [lo, hi] activation range.
	Ranges map[string]Range
}

// Range is a closed activation interval.
type Range struct{ Lo, Hi float64 }

// merge widens r to cover v.
func (r *Range) merge(lo, hi float64) {
	if lo < r.Lo {
		r.Lo = lo
	}
	if hi > r.Hi {
		r.Hi = hi
	}
}

// Calibrate runs the float64 master model over representative tiles in
// batches of batchSize, recording each stage's activation range. The
// observation is a pure min/max merge — commutative and associative — and
// the underlying session computes serially inside one worker, so the
// result is bit-identical at any pool worker count (asserted by
// TestCalibrateDeterministic).
//
// The input stage needs no calibration: tiles are 8-bit, so the input
// quantization is the fixed exact map q = round(127·pix/255).
func Calibrate(m *Model[float64], tiles []*raster.RGB, batchSize int) (*Calibration, error) {
	if len(tiles) == 0 {
		return nil, fmt.Errorf("unet: Calibrate needs at least one representative tile")
	}
	if batchSize < 1 {
		batchSize = 1
	}
	cal := &Calibration{Ranges: make(map[string]Range)}
	s := NewSession(m)
	var firstNaN string
	s.SetObserver(func(stage string, data []float64) {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, v := range data {
			if math.IsNaN(v) {
				if firstNaN == "" {
					firstNaN = stage
				}
				return
			}
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		r, ok := cal.Ranges[stage]
		if !ok {
			r = Range{Lo: lo, Hi: hi}
		} else {
			r.merge(lo, hi)
		}
		cal.Ranges[stage] = r
	})
	defer s.SetObserver(nil)
	for start := 0; start < len(tiles); start += batchSize {
		end := start + batchSize
		if end > len(tiles) {
			end = len(tiles)
		}
		if _, err := s.PredictTiles(tiles[start:end]); err != nil {
			return nil, fmt.Errorf("unet: calibration batch at tile %d: %v", start, err)
		}
	}
	if firstNaN != "" {
		return nil, fmt.Errorf("unet: calibration saw NaN activations at stage %s", firstNaN)
	}
	return cal, nil
}

// ActQuants derives the per-stage activation quantizations from the
// calibrated ranges — the scale/zero-point tables the quantized model
// (and its checkpoint) is built from.
func (c *Calibration) ActQuants() map[string]tensor.ActQuant {
	out := make(map[string]tensor.ActQuant, len(c.Ranges))
	for stage, r := range c.Ranges {
		out[stage] = tensor.ActParams(r.Lo, r.Hi)
	}
	return out
}
