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

// qBlock is a quantized double-convolution group: conv2 always reads
// conv1's output; a decoder block's conv1 reads the virtual concat of the
// encoder skip and the up-convolution output.
type qBlock struct {
	conv1, conv2 *nn.QConv
}

// QuantModel is the int8 rendering of a trained float64 master: per-
// output-channel symmetric int8 weights, calibrated activation
// quantizations, and fully integer inference (see internal/nn's
// quantized layers). It retains the master weights and the activation
// tables so it can be checkpointed (version 3) and rebuilt exactly.
//
// A QuantModel's weights are read-only after construction; like the
// float Model it may be shared by any number of sessions.
type QuantModel struct {
	cfg     Config
	weights map[string][]float64
	acts    map[string]tensor.ActQuant

	enc  []*qBlock
	bot  *qBlock
	ups  []*nn.QConvT
	dec  []*qBlock
	head *nn.QHead
}

// Quantize builds the int8 model from a float64 master and its
// calibration. Quantization is deterministic: the same master and
// calibration always produce bit-identical tables, at any pool worker
// count.
func Quantize(m *Model[float64], cal *Calibration) (*QuantModel, error) {
	return buildQuant(m.Config(), m.WeightsF64(), cal.ActQuants())
}

// RequiredStages lists the activation stages a quantized build of cfg
// needs calibrations for.
func RequiredStages(cfg Config) []string {
	var out []string
	for l := 0; l < cfg.Depth; l++ {
		out = append(out, fmt.Sprintf("enc%d.conv1", l), fmt.Sprintf("enc%d.conv2", l))
	}
	out = append(out, "bottleneck.conv1", "bottleneck.conv2")
	for l := cfg.Depth - 1; l >= 0; l-- {
		out = append(out, fmt.Sprintf("up%d", l), fmt.Sprintf("dec%d.conv1", l), fmt.Sprintf("dec%d.conv2", l))
	}
	return out
}

// buildQuant assembles a QuantModel from checkpoint-shaped state: master
// weights by parameter name plus activation quantizations by stage. It
// is the single construction path for both Quantize and the version-3
// checkpoint loader, so a save/load round trip rebuilds identical
// tables.
func buildQuant(cfg Config, weights map[string][]float64, acts map[string]tensor.ActQuant) (*QuantModel, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	qm := &QuantModel{cfg: cfg, weights: weights, acts: acts}

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
	qconv := func(name string, outC, k int, in ...nn.QIn) (*nn.QConv, tensor.ActQuant, error) {
		inC := 0
		for _, s := range in {
			inC += s.C
		}
		w, err := getW(name+".weight", outC*inC*k*k)
		if err != nil {
			return nil, tensor.ActQuant{}, err
		}
		b, err := getW(name+".bias", outC)
		if err != nil {
			return nil, tensor.ActQuant{}, err
		}
		out, err := getAct(name)
		if err != nil {
			return nil, tensor.ActQuant{}, err
		}
		c, err := nn.NewQConv(name, in, outC, k, w, b, out)
		return c, out, err
	}

	// Contracting path.
	inC, ch := cfg.InChannels, cfg.BaseChannels
	curQ := InputQuant
	skipQ := make([]tensor.ActQuant, cfg.Depth) // each encoder level's output quantization
	for l := 0; l < cfg.Depth; l++ {
		c1, q1, err := qconv(fmt.Sprintf("enc%d.conv1", l), ch, 3, nn.QIn{C: inC, Q: curQ})
		if err != nil {
			return nil, err
		}
		c2, q2, err := qconv(fmt.Sprintf("enc%d.conv2", l), ch, 3, nn.QIn{C: ch, Q: q1})
		if err != nil {
			return nil, err
		}
		qm.enc = append(qm.enc, &qBlock{conv1: c1, conv2: c2})
		skipQ[l], curQ = q2, q2 // max-pool preserves quantization
		inC, ch = ch, ch*2
	}

	// Bottleneck.
	b1, q1, err := qconv("bottleneck.conv1", ch, 3, nn.QIn{C: inC, Q: curQ})
	if err != nil {
		return nil, err
	}
	b2, q2, err := qconv("bottleneck.conv2", ch, 3, nn.QIn{C: ch, Q: q1})
	if err != nil {
		return nil, err
	}
	qm.bot = &qBlock{conv1: b1, conv2: b2}
	curQ = q2

	// Expanding path.
	for l := cfg.Depth - 1; l >= 0; l-- {
		skipC := cfg.BaseChannels << l
		upName := fmt.Sprintf("up%d", l)
		uw, err := getW(upName+".weight", ch*skipC*4)
		if err != nil {
			return nil, err
		}
		ub, err := getW(upName+".bias", skipC)
		if err != nil {
			return nil, err
		}
		upQ, err := getAct(upName)
		if err != nil {
			return nil, err
		}
		up, err := nn.NewQConvT(upName, nn.QIn{C: ch, Q: curQ}, skipC, uw, ub, upQ)
		if err != nil {
			return nil, err
		}
		qm.ups = append(qm.ups, up)

		d1, dq1, err := qconv(fmt.Sprintf("dec%d.conv1", l), skipC, 3,
			nn.QIn{C: skipC, Q: skipQ[l]}, nn.QIn{C: skipC, Q: upQ})
		if err != nil {
			return nil, err
		}
		d2, dq2, err := qconv(fmt.Sprintf("dec%d.conv2", l), skipC, 3, nn.QIn{C: skipC, Q: dq1})
		if err != nil {
			return nil, err
		}
		qm.dec = append(qm.dec, &qBlock{conv1: d1, conv2: d2})
		curQ, ch = dq2, skipC
	}

	// Head.
	hw, err := getW("final.weight", cfg.Classes*cfg.BaseChannels)
	if err != nil {
		return nil, err
	}
	hb, err := getW("final.bias", cfg.Classes)
	if err != nil {
		return nil, err
	}
	qm.head, err = nn.NewQHead(nn.QIn{C: cfg.BaseChannels, Q: curQ}, cfg.Classes, hw, hb)
	if err != nil {
		return nil, err
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
