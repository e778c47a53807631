package unet

import (
	"errors"
	"fmt"
	"math"

	"seaice/internal/nn"
	"seaice/internal/pool"
	"seaice/internal/raster"
	"seaice/internal/tensor"
)

// ErrNonFinite reports a forward pass whose logits contain NaN or ±Inf —
// corrupted weights (a flipped bit in a checkpoint, a bad quantized
// table) or poisoned activations. Predictions built from non-finite
// logits are garbage that argmax would silently launder into plausible
// class maps, so the session refuses to emit them; the serving layer
// maps this to an HTTP 400 before the result can enter its cache.
var ErrNonFinite = errors.New("unet: non-finite logits")

// Session is a forward-only inference engine over a trained Model. It
// avoids the training path's costs: convolutions run directly on NCHW
// planes (no im2col materialization), bias and ReLU are applied in a
// fused pass, the skip-connection concatenation is virtualized instead
// of copied, and every intermediate activation lives in a buffer owned
// by the session and reused across calls. Micro-batched serving
// (internal/serve) runs one Session per worker.
//
// A float64 session produces Model.Predict's outputs exactly; a float32
// session additionally routes its 3×3 convolutions through the Winograd
// engine (nn.Winograd) — deterministic, and within the documented
// tolerance of the float64 model rather than bit-equal.
//
// A Session is NOT safe for concurrent use; the underlying Model's
// weights are only read, so many Sessions may share one Model. They must
// not change while a session lives: it caches layouts derived from them
// (Winograd filter transforms, GEMM-ordered up-convolution weights) on
// first use. The
// session runs its kernels serially (pool.Serial()): serving
// concurrency comes from running one Session per worker, and nesting a
// fan-out inside each worker would oversubscribe the cores.
type Session[S tensor.Scalar] struct {
	m *Model[S]

	// Grow-only activation buffers, reused across Forward calls: the
	// staged input of PredictTiles and one output per plan step (the
	// last is the logits; a skip source simply stays live until its
	// decoder step reads it).
	in      []S
	bufs    [][]S
	lastDim []int // shape of the last logits tensor

	// wino is the reduced-multiplication conv engine (F(4×4,3×3) on
	// planes divisible by four, F(2×2,3×3) on other even ones), static:
	// it caches each layer's filter transforms, and their transposes for
	// batches narrower than the SIMD panel, on first use. Non-nil only
	// for float32 sessions, where tolerance (not bit-identity) scopes the
	// guarantee and the cheaper algebra is admissible. See the precision
	// policy in nn.Winograd's doc.
	wino *nn.Winograd[S]

	// upA caches, per plan step, an up-convolution's weights in the GEMM
	// order nn.ConvT2x2Planes takes (nn.ConvT2x2Weights), built on first
	// use: the Model is shared by many sessions, so the cache lives here,
	// never on the layer. upC is the up-convolutions' product scratch.
	upA [][]S
	upC []S

	// obs, when set, receives every intermediate activation buffer by
	// stage name after it is produced — the calibration pass's window
	// into the forward (see Calibrate). Nil outside calibration.
	obs func(stage string, data []S)
}

// SetObserver registers fn to receive each stage's activation buffer
// (keyed by the producing layer's name) during Forward. Pass nil to
// detach. The buffers alias session memory: observers must not retain
// them.
func (s *Session[S]) SetObserver(fn func(stage string, data []S)) { s.obs = fn }

func (s *Session[S]) observe(stage string, data []S) {
	if s.obs != nil {
		s.obs(stage, data)
	}
}

// NewSession builds an inference session for m.
func NewSession[S tensor.Scalar](m *Model[S]) *Session[S] {
	var wino *nn.Winograd[S]
	if tensor.IsF32[S]() {
		wino = nn.NewWinograd[S](true)
	}
	return &Session[S]{m: m, wino: wino, bufs: make([][]S, len(m.plan)), upA: make([][]S, len(m.plan))}
}

// Model returns the session's underlying model.
func (s *Session[S]) Model() *Model[S] { return s.m }

// grow returns buf resized to n elements, reallocating only when the
// capacity is insufficient. Contents are NOT cleared.
func grow[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// conv3 dispatches one fused 3×3+ReLU convolution: the direct NCHW
// kernel (bit-compatible with the training forward), or — on float32
// sessions, for even plane sizes — the Winograd transform engine.
func (s *Session[S]) conv3(c *nn.Conv2D[S], xa []S, ca int, xb []S, cb int, n, h, w int, dst []S) {
	if s.wino != nil && s.wino.Usable(c, h, w) {
		s.wino.Conv(c, xa, ca, xb, cb, n, h, w, dst, true)
		return
	}
	nn.Conv3x3Planes(pool.Serial(), c, xa, ca, xb, cb, n, h, w, dst, true)
}

// Forward runs the U-Net on x (N, InChannels, H, W) and returns class
// logits (N, Classes, H, W). The returned tensor aliases session-owned
// memory and is only valid until the next Forward/Predict call.
func (s *Session[S]) Forward(x *tensor.Tensor[S]) (*tensor.Tensor[S], error) {
	if len(x.Shape) != 4 || x.Shape[1] != s.m.cfg.InChannels {
		return nil, fmt.Errorf("unet: session expects (N,%d,H,W), got %v", s.m.cfg.InChannels, x.Shape)
	}
	n, h, w := x.Shape[0], x.Shape[2], x.Shape[3]
	min := s.m.cfg.MinInputSize()
	if h%min != 0 || w%min != 0 {
		return nil, fmt.Errorf("unet: session input %dx%d not divisible by %d", w, h, min)
	}
	var out []S
	for i, st := range s.m.plan {
		src := x.Data
		if st.in >= 0 {
			src = s.bufs[st.in]
		}
		l := &s.m.layers[i]
		sh, sw := h>>st.shift, w>>st.shift
		out = grow(&s.bufs[i], n*st.outC*sh*sw)
		switch st.op {
		case opConv3:
			xa, ca, xb, cb := src, st.inC, []S(nil), 0
			if st.skip >= 0 { // virtual concat, no copy: the skip's channels, then src's
				xa, ca = s.bufs[st.skip], s.m.plan[st.skip].outC
				xb, cb = src, st.inC-ca
			}
			s.conv3(l.conv, xa, ca, xb, cb, n, sh, sw, out)
			s.observe(st.name, out)
		case opPool:
			nn.MaxPool2Planes(src, n*st.outC, 2*sh, 2*sw, out)
		case opUp:
			a := s.upA[i]
			if a == nil {
				a = make([]S, 4*l.up.OutC*l.up.InC)
				nn.ConvT2x2Weights(l.up, a)
				s.upA[i] = a
			}
			nn.ConvT2x2Planes(pool.Serial(), l.up, a, src, n, sh/2, sw/2, out, grow(&s.upC, len(out)))
			s.observe(st.name, out)
		case opHead:
			nn.Conv1x1Planes(pool.Serial(), l.conv, src, st.inC, n, sh, sw, out)
		}
	}
	s.lastDim = []int{n, s.m.cfg.Classes, h, w}
	return tensor.FromData(out, s.lastDim...), nil
}

// Predict returns per-pixel class predictions for x, like Model.Predict.
// Logits are integrity-checked first: a non-finite value anywhere fails
// the call with ErrNonFinite instead of laundering garbage through
// argmax.
func (s *Session[S]) Predict(x *tensor.Tensor[S]) ([]uint8, error) {
	logits, err := s.Forward(x)
	if err != nil {
		return nil, err
	}
	for i, v := range logits.Data {
		if f := float64(v); math.IsNaN(f) || math.IsInf(f, 0) {
			kind := "NaN"
			if math.IsInf(f, 0) {
				kind = "Inf"
			}
			return nil, fmt.Errorf("%w: %s at element %d of %v", ErrNonFinite, kind, i, logits.Shape)
		}
	}
	return nn.Predict(logits), nil
}

// PredictTiles classifies a batch of equally-sized RGB tiles in one
// forward pass, amortizing per-layer cost across the batch.
func (s *Session[S]) PredictTiles(tiles []*raster.RGB) ([]*raster.Labels, error) {
	if len(tiles) == 0 {
		return nil, fmt.Errorf("unet: empty tile batch")
	}
	w, h := tiles[0].W, tiles[0].H
	plane := h * w
	in := grow(&s.in, len(tiles)*3*plane)
	for ti, t := range tiles {
		if t.W != w || t.H != h {
			return nil, fmt.Errorf("unet: tile %d is %dx%d, batch is %dx%d", ti, t.W, t.H, w, h)
		}
		base := ti * 3 * plane
		for p := 0; p < plane; p++ {
			in[base+p] = S(t.Pix[3*p]) / 255
			in[base+plane+p] = S(t.Pix[3*p+1]) / 255
			in[base+2*plane+p] = S(t.Pix[3*p+2]) / 255
		}
	}
	pred, err := s.Predict(tensor.FromData(in, len(tiles), 3, h, w))
	if err != nil {
		return nil, err
	}
	return tileLabels(pred, len(tiles), w, h), nil
}

// tileLabels cuts the pixel-major predictions of n w×h tiles into one
// label raster per tile.
func tileLabels(pred []uint8, n, w, h int) []*raster.Labels {
	out := make([]*raster.Labels, n)
	for ti := range out {
		lab := raster.NewLabels(w, h)
		for p := range lab.Pix {
			lab.Pix[p] = raster.Class(pred[ti*w*h+p])
		}
		out[ti] = lab
	}
	return out
}

// The direct NCHW kernels the session is built on (fused 3×3 and 1×1
// convolutions, 2×2 max-pool, 2×2 transposed convolution) live in
// internal/nn (kernels.go) so the training engine and this inference
// session share one implementation.
