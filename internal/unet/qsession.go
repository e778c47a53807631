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
	// own output.
	in     nn.QAct
	encC1  []nn.QAct
	encC2  []nn.QAct // skip sources — live until the decoder consumes them
	pooled []nn.QAct
	botC1  nn.QAct
	botC2  nn.QAct
	up     []nn.QAct
	decC1  []nn.QAct
	decC2  []nn.QAct
	acc    []int32 // shared accumulator scratch: one output row
	labels []uint8
}

// NewQuantSession builds an inference session for q.
func NewQuantSession(q *QuantModel) *QuantSession {
	d := q.cfg.Depth
	return &QuantSession{
		m:      q,
		encC1:  make([]nn.QAct, d),
		encC2:  make([]nn.QAct, d),
		pooled: make([]nn.QAct, d),
		up:     make([]nn.QAct, d),
		decC1:  make([]nn.QAct, d),
		decC2:  make([]nn.QAct, d),
	}
}

// Model returns the session's underlying quantized model.
func (s *QuantSession) Model() *QuantModel { return s.m }

// forward classifies the quantized input already staged in s.in,
// returning per-pixel labels in s.labels (n·h·w bytes, pixel-major).
func (s *QuantSession) forward() []uint8 {
	m := s.m
	d := m.cfg.Depth

	// Contracting path.
	cur := &s.in
	for l := 0; l < d; l++ {
		b := m.enc[l]
		b.conv1.Forward(&s.encC1[l], &s.acc, cur)
		b.conv2.Forward(&s.encC2[l], &s.acc, &s.encC1[l])
		nn.QMaxPool2(&s.pooled[l], &s.encC2[l])
		cur = &s.pooled[l]
	}

	// Bottleneck.
	m.bot.conv1.Forward(&s.botC1, &s.acc, cur)
	m.bot.conv2.Forward(&s.botC2, &s.acc, &s.botC1)
	cur = &s.botC2

	// Expanding path.
	for i := 0; i < d; i++ {
		m.ups[i].Forward(&s.up[i], &s.acc, cur)
		db := m.dec[i]
		db.conv1.Forward(&s.decC1[i], &s.acc, &s.encC2[d-1-i], &s.up[i])
		db.conv2.Forward(&s.decC2[i], &s.acc, &s.decC1[i])
		cur = &s.decC2[i]
	}

	// Head: dequantize to float logits, argmax to labels.
	labels := grow(&s.labels, cur.N*cur.H*cur.W)
	m.head.Forward(labels, &s.acc, cur)
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
	plane := h * w
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
	labels := s.forward()
	out := make([]*raster.Labels, len(tiles))
	for ti := range tiles {
		lab := raster.NewLabels(w, h)
		for p := 0; p < plane; p++ {
			lab.Pix[p] = raster.Class(labels[ti*plane+p])
		}
		out[ti] = lab
	}
	return out, nil
}
