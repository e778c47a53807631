// Package unet assembles the paper's U-Net semantic-segmentation model
// (§III-C, Fig 7) from the layers in internal/nn: a contracting path of
// double 3×3 convolutions with ReLU and 2×2 max-pooling, a bottleneck, an
// expanding path of 2×2 up-convolutions with skip-connection
// concatenation and double convolutions, dropout between convolutions,
// and a final 1×1 convolution onto the three sea-ice classes.
//
// PaperConfig reproduces the published architecture exactly — five down
// steps, one bottleneck, five up steps, 28 convolutional layers in total.
// FastConfig is the reduced preset the accuracy experiments run at
// (core.DefaultAccuracyConfig): same block structure, three levels, eight
// base channels, sized so pure-Go CPU training of a whole experiment
// takes minutes, not the paper's GPU-hours.
//
// The graph is stated once, as Config.plan (plan.go): a list of steps in
// execution order, which is also the He-initialization draw order, the
// Params() order and therefore the checkpoint and flattened-gradient
// order. Five walkers loop over it with one switch on the step's kind —
// Model.Forward/Backward (training), Session (float inference),
// buildQuant (quantization), QuantSession (int8 inference) and
// RequiredStages (calibration) — and Model, Session, QuantModel and
// QuantSession each hold one slice index-aligned with it.
//
// The model is generic over the compute precision (tensor.Scalar):
// Model[float64] is the master/reference instantiation, Model[float32]
// the bandwidth-saving compute path training and serving default to.
//
// Determinism guarantees are precision-scoped: weight initialization and
// dropout are seeded (Config.Seed), and the float64 fused-kernel
// inference Session is bit-compatible with the float64 training-path
// forward — Session.Predict on a tile equals Model.Forward's argmax
// exactly, which is asserted in the infer tests. The float32 session
// runs its 3×3 convolutions through Winograd transforms, so it matches
// the float64 model within the documented tolerance bound instead
// (TestF32SessionWithinToleranceOfF64) while remaining deterministic
// bit-for-bit across runs. A Session reuses its buffers and serves one
// request at a time; concurrent servers allocate one session per
// worker.
package unet

import (
	"fmt"

	"seaice/internal/nn"
	"seaice/internal/noise"
	"seaice/internal/tensor"
)

// Config describes a U-Net variant.
type Config struct {
	// Depth is the number of down-sampling steps (paper: 5).
	Depth int
	// BaseChannels is the feature width of the first level (paper: 64);
	// level l uses BaseChannels·2^l.
	BaseChannels int
	// InChannels is 3 for RGB tiles.
	InChannels int
	// Classes is 3: thick ice, thin ice, open water.
	Classes int
	// DropoutRate regularizes between convolutions (paper explores
	// 0.1/0.2/0.3).
	DropoutRate float64
	// Seed drives weight initialization and dropout.
	Seed uint64
}

// PaperConfig is the published architecture: 5 down steps + bottleneck +
// 5 up steps = 28 conv layers (10 contracting + 2 bottleneck + 5 up-conv
// + 10 expanding + 1 final 1×1).
func PaperConfig(seed uint64) Config {
	return Config{Depth: 5, BaseChannels: 64, InChannels: 3, Classes: 3, DropoutRate: 0.2, Seed: seed}
}

// FastConfig is the single-core experiment preset.
func FastConfig(seed uint64) Config {
	return Config{Depth: 3, BaseChannels: 8, InChannels: 3, Classes: 3, DropoutRate: 0.1, Seed: seed}
}

// maxChannels bounds every channel count of a Config, so the plan's
// channel arithmetic (BaseChannels·2^Depth) cannot overflow.
const maxChannels = 1 << 16

// Validate rejects impossible configurations.
func (c Config) Validate() error {
	// The upper bound keeps 1<<Depth a possible tile size and the plan of
	// a config decoded from an untrusted checkpoint small.
	if c.Depth < 1 || c.Depth > 30 {
		return fmt.Errorf("unet: depth must be in [1, 30], got %d", c.Depth)
	}
	if c.BaseChannels < 1 || c.InChannels < 1 || c.Classes < 2 ||
		c.BaseChannels > maxChannels || c.InChannels > maxChannels || c.Classes > maxChannels {
		return fmt.Errorf("unet: invalid channels (base %d, in %d, classes %d)", c.BaseChannels, c.InChannels, c.Classes)
	}
	if !(c.DropoutRate >= 0 && c.DropoutRate < 1) {
		return fmt.Errorf("unet: invalid dropout %f", c.DropoutRate)
	}
	return nil
}

// MinInputSize returns the smallest square input the network accepts
// (spatial size must survive Depth halvings).
func (c Config) MinInputSize() int { return 1 << c.Depth }

// NumConvLayers counts convolutional layers (incl. up-convolutions and
// the final 1×1): 2·Depth contracting + 2 bottleneck + Depth up-convs +
// 2·Depth expanding + 1 head — 28 for PaperConfig, matching §III-C1.
func (c Config) NumConvLayers() int { return 5*c.Depth + 3 }

// layer holds the nn modules of one plan step: conv+relu (and drop after
// them when the step says so) for a 3×3 step, with cat joining its two
// sources when it has a skip; pool; up; conv alone for the head.
type layer[S tensor.Scalar] struct {
	conv *nn.Conv2D[S]
	relu *nn.ReLU[S]
	drop *nn.Dropout[S]
	cat  *nn.Concat[S]
	pool *nn.MaxPool2[S]
	up   *nn.ConvTranspose2x2[S]
}

// Model is an assembled U-Net.
type Model[S tensor.Scalar] struct {
	cfg Config

	// plan is cfg.plan(); layers[i] executes plan[i].
	plan   []step
	layers []layer[S]

	// loss is the training criterion; nil selects the default softmax
	// cross-entropy on first use. SetCriterion swaps in an alternative
	// (e.g. nn.FocalCrossEntropy via train.Config.Focal). The criterion
	// is stateless apart from scratch buffers, so it is deliberately
	// not part of checkpoints or snapshots.
	loss nn.Criterion[S]

	// rng is the model's one deterministic stream (He init, then dropout
	// noise). Its position is part of the training state: the
	// fault-tolerance snapshots capture and restore it so a recovered
	// run draws the identical dropout masks a never-failed run would.
	rng *noise.RNG
}

// New builds a model with deterministic He initialization from cfg.Seed,
// drawn in plan order.
func New[S tensor.Scalar](cfg Config) (*Model[S], error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := noise.NewRNG(cfg.Seed, 0x0de1)
	m := &Model[S]{cfg: cfg, rng: rng, plan: cfg.plan()}
	m.layers = make([]layer[S], len(m.plan))
	for i, st := range m.plan {
		l := &m.layers[i]
		switch st.op {
		case opConv3:
			l.conv = nn.NewConv2D[S](st.name, st.inC, st.outC, 3, rng)
			l.relu = nn.NewReLU[S](st.name + ".relu")
			if st.drop {
				l.drop = nn.NewDropout[S](st.name+".drop", cfg.DropoutRate, rng)
			}
			if st.skip >= 0 {
				l.cat = nn.NewConcat[S](st.name + ".concat")
			}
		case opPool:
			l.pool = nn.NewMaxPool2[S](st.name)
		case opUp:
			l.up = nn.NewConvTranspose2x2[S](st.name, st.inC, st.outC, rng)
		case opHead:
			l.conv = nn.NewConv2D[S](st.name, st.inC, st.outC, 1, rng)
		}
	}
	return m, nil
}

// Config returns the model's configuration.
func (m *Model[S]) Config() Config { return m.cfg }

// RNGState captures the position of the model's dropout/init stream —
// part of the exact training state alongside weights and optimizer
// moments.
func (m *Model[S]) RNGState() noise.RNGState { return m.rng.State() }

// SetRNGState rewinds the model's stream to a captured position, so a
// replayed or retried step draws the same dropout masks.
func (m *Model[S]) SetRNGState(st noise.RNGState) { m.rng.SetState(st) }

// WeightsF64 exports every parameter as float64 keyed by name — the
// snapshot/checkpoint representation (exact for either precision, since
// every float32 is representable in float64).
func (m *Model[S]) WeightsF64() map[string][]float64 {
	out := make(map[string][]float64)
	for _, p := range m.Params() {
		data := make([]float64, p.W.Len())
		for i, v := range p.W.Data {
			data[i] = float64(v)
		}
		out[p.Name] = data
	}
	return out
}

// SetWeightsF64 loads float64 weights by parameter name (rounding when S
// is float32 — the same conversion Load applies).
func (m *Model[S]) SetWeightsF64(weights map[string][]float64) error {
	for _, p := range m.Params() {
		data, ok := weights[p.Name]
		if !ok {
			return fmt.Errorf("unet: missing weights for %s", p.Name)
		}
		if len(data) != p.W.Len() {
			return fmt.Errorf("unet: weight %s has %d values, model needs %d", p.Name, len(data), p.W.Len())
		}
		for i, v := range data {
			p.W.Data[i] = S(v)
		}
	}
	return nil
}

// NumConvLayers counts the model's convolutional layers; see
// Config.NumConvLayers.
func (m *Model[S]) NumConvLayers() int { return m.cfg.NumConvLayers() }

// Params lists every learnable parameter in plan order — the stable
// order checkpoints, gradient flattening and optimizer state rely on.
func (m *Model[S]) Params() []*nn.Param[S] {
	var out []*nn.Param[S]
	for i := range m.layers {
		switch l := &m.layers[i]; {
		case l.conv != nil:
			out = append(out, l.conv.Params()...)
		case l.up != nil:
			out = append(out, l.up.Params()...)
		}
	}
	return out
}

// NumParams returns the total scalar parameter count.
func (m *Model[S]) NumParams() int {
	n := 0
	for _, p := range m.Params() {
		n += p.W.Len()
	}
	return n
}

// Forward runs the network on x (N,3,H,W) and returns class logits
// (N,Classes,H,W). H and W must be divisible by 2^Depth.
func (m *Model[S]) Forward(x *tensor.Tensor[S], train bool) *tensor.Tensor[S] {
	outs := make([]*tensor.Tensor[S], len(m.plan))
	for i, st := range m.plan {
		in := x
		if st.in >= 0 {
			in = outs[st.in]
		}
		switch l := &m.layers[i]; st.op {
		case opConv3:
			if st.skip >= 0 {
				in = l.cat.Join(outs[st.skip], in)
			}
			in = l.relu.Forward(l.conv.Forward(in, train), train)
			if st.drop {
				in = l.drop.Forward(in, train)
			}
			outs[i] = in
		case opPool:
			outs[i] = l.pool.Forward(in, train)
		case opUp:
			outs[i] = l.up.Forward(in, train)
		case opHead:
			outs[i] = l.conv.Forward(in, train)
		}
	}
	return outs[len(outs)-1]
}

// Backward propagates dL/dlogits through the whole graph, accumulating
// parameter gradients, and returns dL/dinput. It walks the plan in
// reverse; an output with two consumers (an encoder block feeding its
// pool and a decoder skip) sums their gradients, the later arrival —
// the pool's — receiving the earlier.
func (m *Model[S]) Backward(dy *tensor.Tensor[S]) *tensor.Tensor[S] {
	grads := make([]*tensor.Tensor[S], len(m.plan))
	grads[len(grads)-1] = dy
	var dx *tensor.Tensor[S]
	give := func(to int, g *tensor.Tensor[S]) {
		if to < 0 {
			dx = g
			return
		}
		if grads[to] != nil {
			g.AddInPlace(grads[to])
		}
		grads[to] = g
	}
	for i := len(m.plan) - 1; i >= 0; i-- {
		st, l, g := m.plan[i], &m.layers[i], grads[i]
		switch st.op {
		case opConv3:
			if st.drop {
				g = l.drop.Backward(g)
			}
			g = l.conv.Backward(l.relu.Backward(g))
			if st.skip >= 0 {
				var gskip *tensor.Tensor[S]
				gskip, g = l.cat.Split(g)
				give(st.skip, gskip)
			}
		case opPool:
			g = l.pool.Backward(g)
		case opUp:
			g = l.up.Backward(g)
		case opHead:
			g = l.conv.Backward(g)
		}
		give(st.in, g)
	}
	return dx
}

// SetCriterion selects the training loss for LossAndGrad; nil restores
// the default softmax cross-entropy. Swapping the criterion does not
// touch weights or optimizer state, so it composes with checkpoints and
// the fault-tolerance snapshots.
func (m *Model[S]) SetCriterion(c nn.Criterion[S]) { m.loss = c }

// criterion returns the active training loss, defaulting to softmax
// cross-entropy on first use.
func (m *Model[S]) criterion() nn.Criterion[S] {
	if m.loss == nil {
		m.loss = &nn.SoftmaxCrossEntropy[S]{}
	}
	return m.loss
}

// LossAndGrad computes the training criterion (softmax cross-entropy by
// default, see SetCriterion) on a forward pass and runs the full
// backward pass. It returns the mean loss.
func (m *Model[S]) LossAndGrad(x *tensor.Tensor[S], labels []uint8) (float64, error) {
	crit := m.criterion()
	logits := m.Forward(x, true)
	loss, err := crit.Loss(logits, labels)
	if err != nil {
		return 0, err
	}
	m.Backward(crit.Grad())
	return loss, nil
}
