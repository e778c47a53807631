package unet

import (
	"fmt"
	"math"

	"seaice/internal/nn"
	"seaice/internal/tensor"
)

// InputQuant is the fixed quantization of the network input. Tiles
// arrive as 8-bit pixels normalized to [0, 1], so the exact affine map
// q = round(127·pix/255) needs no calibration and introduces at most
// half a step (1/254) of input error.
var InputQuant = tensor.ActQuant{Scale: 1.0 / tensor.QuantMax, Zero: 0}

// qLayer is the quantized module of one plan step: conv for a 3×3 step,
// up, head, or nothing for a pool (which needs no tables).
type qLayer struct {
	conv *nn.QConv
	up   *nn.QConvT
	head *nn.QHead
}

// QuantModel is the int8 rendering of a trained float64 master: per-
// output-channel symmetric int8 weights, calibrated activation
// quantizations, and fully integer inference (see internal/nn's
// quantized layers). It retains the master weights and the activation
// tables so it can be checkpointed and rebuilt exactly.
//
// A QuantModel's weights are read-only after construction; like the
// float Model it may be shared by any number of sessions.
type QuantModel struct {
	cfg     Config
	weights map[string][]float64
	acts    map[string]tensor.ActQuant

	// plan is cfg.plan(); layers[i] executes plan[i].
	plan   []step
	layers []qLayer
}

// Quantize builds the int8 model from a float64 master and its
// calibration. Quantization is deterministic: the same master and
// calibration always produce bit-identical tables, at any pool worker
// count.
func Quantize(m *Model[float64], cal *Calibration) (*QuantModel, error) {
	return buildQuant(m.Config(), m.WeightsF64(), cal.ActQuants())
}

// buildQuant assembles a QuantModel from checkpoint-shaped state: master
// weights by parameter name plus activation quantizations by stage. It
// is the single construction path for both Quantize and the quantized
// checkpoint loader, so a save/load round trip rebuilds identical
// tables.
func buildQuant(cfg Config, weights map[string][]float64, acts map[string]tensor.ActQuant) (*QuantModel, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	qm := &QuantModel{cfg: cfg, weights: weights, acts: acts, plan: cfg.plan()}
	qm.layers = make([]qLayer, len(qm.plan))

	getW := func(name string, want int) ([]float64, error) {
		w, ok := weights[name]
		if !ok {
			return nil, fmt.Errorf("unet: quantize: missing weights for %s", name)
		}
		if len(w) != want {
			return nil, fmt.Errorf("unet: quantize: %s has %d values, want %d", name, len(w), want)
		}
		return w, nil
	}
	getAct := func(stage string) (tensor.ActQuant, error) {
		a, ok := acts[stage]
		if !ok {
			return a, fmt.Errorf("unet: quantize: missing activation quantization for stage %s", stage)
		}
		if !(a.Scale > 0) || math.IsInf(a.Scale, 0) || math.IsNaN(a.Scale) {
			return a, fmt.Errorf("unet: quantize: stage %s has invalid scale %v", stage, a.Scale)
		}
		if a.Zero > tensor.QuantMax {
			return a, fmt.Errorf("unet: quantize: stage %s zero-point %d exceeds %d", stage, a.Zero, tensor.QuantMax)
		}
		return a, nil
	}

	// outQ[i] is the quantization of step i's output; src describes step
	// i's output (or the network input) as a layer's input source.
	outQ := make([]tensor.ActQuant, len(qm.plan))
	src := func(i int) nn.QIn {
		if i < 0 {
			return nn.QIn{C: cfg.InChannels, Q: InputQuant}
		}
		return nn.QIn{C: qm.plan[i].outC, Q: outQ[i]}
	}
	for i, st := range qm.plan {
		if st.op == opPool {
			outQ[i] = outQ[st.in] // max-pool preserves quantization
			continue
		}
		w, err := getW(st.name+".weight", st.weightLen())
		if err != nil {
			return nil, err
		}
		b, err := getW(st.name+".bias", st.outC)
		if err != nil {
			return nil, err
		}
		if st.op != opHead { // the head dequantizes to float logits
			if outQ[i], err = getAct(st.name); err != nil {
				return nil, err
			}
		}
		l := &qm.layers[i]
		switch st.op {
		case opConv3:
			in := []nn.QIn{src(st.in)}
			if st.skip >= 0 {
				in = []nn.QIn{src(st.skip), src(st.in)}
			}
			l.conv, err = nn.NewQConv(st.name, in, st.outC, 3, w, b, outQ[i])
		case opUp:
			l.up, err = nn.NewQConvT(st.name, src(st.in), st.outC, w, b, outQ[i])
		case opHead:
			l.head, err = nn.NewQHead(src(st.in), st.outC, w, b)
		}
		if err != nil {
			return nil, err
		}
	}
	return qm, nil
}

// Config implements Engine.
func (q *QuantModel) Config() Config { return q.cfg }

// Precision implements Engine.
func (q *QuantModel) Precision() string { return "int8" }

// NewPredictor implements Engine.
func (q *QuantModel) NewPredictor() Predictor { return NewQuantSession(q) }

// ActQuants returns the model's per-stage activation quantization table
// (the checkpoint's scale/zero-point payload). The returned map is
// shared: callers must not mutate it.
func (q *QuantModel) ActQuants() map[string]tensor.ActQuant { return q.acts }

// WeightsF64 returns the retained master weights (shared, read-only).
func (q *QuantModel) WeightsF64() map[string][]float64 { return q.weights }
