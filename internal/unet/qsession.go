package unet

import (
	"fmt"
	"math"

	"seaice/internal/nn"
	"seaice/internal/raster"
	"seaice/internal/tensor"
)

// inputLUT maps an 8-bit pixel to its fixed input quantization
// q = round(127·pix/255) (see InputQuant).
var inputLUT = func() (t [256]uint8) {
	for i := range t {
		t[i] = uint8(math.Round(tensor.QuantMax * float64(i) / 255))
	}
	return
}()

// QuantSession is the int8 counterpart of Session: a forward-only,
// buffer-owning engine over a QuantModel. Activations are halo-padded
// NHWC uint8 (nn.QAct), accumulation is int32 on the active tensor.Int8
// backend, and the requantization epilogue is fixed-point — the whole
// forward is integer until the classifier head, so output labels are
// bit-identical across backends, hosts, and pool worker counts.
//
// Like Session, a QuantSession is NOT safe for concurrent use; the
// underlying QuantModel is read-only and may be shared.
type QuantSession struct {
	m *QuantModel

	// Grow-only buffers, reused across calls; each layer reshapes its
	// own output. acts[i] is plan step i's output (the head's stays
	// empty: it writes labels).
	in     nn.QAct
	acts   []nn.QAct
	acc    []int32 // shared accumulator scratch: one output row
	labels []uint8
}

// NewQuantSession builds an inference session for q.
func NewQuantSession(q *QuantModel) *QuantSession {
	return &QuantSession{m: q, acts: make([]nn.QAct, len(q.plan))}
}

// Model returns the session's underlying quantized model.
func (s *QuantSession) Model() *QuantModel { return s.m }

// forward classifies the quantized input already staged in s.in,
// returning per-pixel labels in s.labels (n·h·w bytes, pixel-major).
func (s *QuantSession) forward() []uint8 {
	var labels []uint8
	for i, st := range s.m.plan {
		in := &s.in
		if st.in >= 0 {
			in = &s.acts[st.in]
		}
		switch l := &s.m.layers[i]; st.op {
		case opConv3:
			if st.skip >= 0 {
				l.conv.Forward(&s.acts[i], &s.acc, &s.acts[st.skip], in)
			} else {
				l.conv.Forward(&s.acts[i], &s.acc, in)
			}
		case opPool:
			nn.QMaxPool2(&s.acts[i], in)
		case opUp:
			l.up.Forward(&s.acts[i], &s.acc, in)
		case opHead: // dequantize to float logits, argmax to labels
			labels = grow(&s.labels, in.N*in.H*in.W)
			l.head.Forward(labels, &s.acc, in)
		}
	}
	return labels
}

// PredictTiles implements Predictor: it classifies a batch of
// equally-sized RGB tiles in one quantized forward pass.
func (s *QuantSession) PredictTiles(tiles []*raster.RGB) ([]*raster.Labels, error) {
	if len(tiles) == 0 {
		return nil, fmt.Errorf("unet: empty tile batch")
	}
	w, h := tiles[0].W, tiles[0].H
	min := s.m.cfg.MinInputSize()
	if h%min != 0 || w%min != 0 {
		return nil, fmt.Errorf("unet: session input %dx%d not divisible by %d", w, h, min)
	}
	s.in.Reshape(len(tiles), h, w, 3, InputQuant.Zero)
	st := s.in.Stride()
	for ti, t := range tiles {
		if t.W != w || t.H != h {
			return nil, fmt.Errorf("unet: tile %d is %dx%d, batch is %dx%d", ti, t.W, t.H, w, h)
		}
		// Channels innermost, quantized through the exact input LUT.
		for y := 0; y < h; y++ {
			src := t.Pix[3*y*w : 3*(y+1)*w]
			dst := s.in.Row(ti, y)
			for x := 0; x < w; x++ {
				dst[st*x] = inputLUT[src[3*x]]
				dst[st*x+1] = inputLUT[src[3*x+1]]
				dst[st*x+2] = inputLUT[src[3*x+2]]
			}
		}
	}
	return tileLabels(s.forward(), len(tiles), w, h), nil
}
