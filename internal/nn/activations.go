package nn

import (
	"fmt"

	"seaice/internal/noise"
	"seaice/internal/tensor"
)

// ReLU is the rectified linear activation used after every convolution in
// the paper's architecture.
type ReLU[S tensor.Scalar] struct {
	name        string
	mask        []bool
	yBuf, dxBuf *tensor.Tensor[S]
}

// NewReLU returns a ReLU layer.
func NewReLU[S tensor.Scalar](name string) *ReLU[S] { return &ReLU[S]{name: name} }

// Name identifies the layer in diagnostics.
func (r *ReLU[S]) Name() string { return r.name }

// Forward clamps negatives to zero, remembering the active set. The
// output aliases a layer-owned grow-only buffer, valid until the next
// Forward.
func (r *ReLU[S]) Forward(x *tensor.Tensor[S], train bool) *tensor.Tensor[S] {
	y := tensor.Grow(&r.yBuf, x.Shape...)
	copy(y.Data, x.Data)
	if cap(r.mask) < len(y.Data) {
		r.mask = make([]bool, len(y.Data))
	}
	r.mask = r.mask[:len(y.Data)]
	for i, v := range y.Data {
		if v > 0 {
			r.mask[i] = true
		} else {
			r.mask[i] = false
			y.Data[i] = 0
		}
	}
	return y
}

// Backward passes gradients only through the active set.
func (r *ReLU[S]) Backward(dy *tensor.Tensor[S]) *tensor.Tensor[S] {
	dx := tensor.Grow(&r.dxBuf, dy.Shape...)
	copy(dx.Data, dy.Data)
	for i := range dx.Data {
		if !r.mask[i] {
			dx.Data[i] = 0
		}
	}
	return dx
}

// MaxPool2 is the 2×2 stride-2 max pooling of the contraction path.
type MaxPool2[S tensor.Scalar] struct {
	name        string
	argmax      []int32
	inShp       []int
	yBuf, dxBuf *tensor.Tensor[S]
}

// NewMaxPool2 returns a max-pool layer.
func NewMaxPool2[S tensor.Scalar](name string) *MaxPool2[S] { return &MaxPool2[S]{name: name} }

// Name identifies the layer in diagnostics.
func (m *MaxPool2[S]) Name() string { return m.name }

// Forward keeps the max of each 2×2 block and records its index.
func (m *MaxPool2[S]) Forward(x *tensor.Tensor[S], train bool) *tensor.Tensor[S] {
	if len(x.Shape) != 4 || x.Shape[2]%2 != 0 || x.Shape[3]%2 != 0 {
		panic(fmt.Sprintf("nn: %s needs even NCHW input, got %v", m.name, x.Shape))
	}
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oh, ow := h/2, w/2
	m.inShp = append(m.inShp[:0], x.Shape...)
	y := tensor.Grow(&m.yBuf, n, c, oh, ow)
	if cap(m.argmax) < y.Len() {
		m.argmax = make([]int32, y.Len())
	}
	m.argmax = m.argmax[:y.Len()]

	oi := 0
	for nc := 0; nc < n*c; nc++ {
		base := nc * h * w
		for oy := 0; oy < oh; oy++ {
			i0 := base + (2*oy)*w
			i1 := base + (2*oy+1)*w
			for ox := 0; ox < ow; ox++ {
				a, b, cc, d := i0+2*ox, i0+2*ox+1, i1+2*ox, i1+2*ox+1
				best, bv := a, x.Data[a]
				if x.Data[b] > bv {
					best, bv = b, x.Data[b]
				}
				if x.Data[cc] > bv {
					best, bv = cc, x.Data[cc]
				}
				if x.Data[d] > bv {
					best, bv = d, x.Data[d]
				}
				y.Data[oi] = bv
				m.argmax[oi] = int32(best)
				oi++
			}
		}
	}
	return y
}

// Backward routes each gradient to the block's argmax position.
func (m *MaxPool2[S]) Backward(dy *tensor.Tensor[S]) *tensor.Tensor[S] {
	dx := tensor.Grow(&m.dxBuf, m.inShp...)
	dx.Zero()
	for i, v := range dy.Data {
		dx.Data[m.argmax[i]] += v
	}
	return dx
}

// Dropout zeroes a fraction of activations during training and scales the
// survivors (inverted dropout), the regularization the paper inserts
// between convolutional layers.
type Dropout[S tensor.Scalar] struct {
	name        string
	Rate        float64
	rng         *noise.RNG
	keep        []bool
	yBuf, dxBuf *tensor.Tensor[S]
}

// NewDropout builds a dropout layer with its own deterministic stream.
func NewDropout[S tensor.Scalar](name string, rate float64, rng *noise.RNG) *Dropout[S] {
	if rate < 0 || rate >= 1 {
		panic(fmt.Sprintf("nn: %s invalid dropout rate %f", name, rate))
	}
	return &Dropout[S]{name: name, Rate: rate, rng: rng}
}

// Name identifies the layer in diagnostics.
func (d *Dropout[S]) Name() string { return d.name }

// Forward applies inverted dropout in training mode and is the identity
// at inference.
func (d *Dropout[S]) Forward(x *tensor.Tensor[S], train bool) *tensor.Tensor[S] {
	y := tensor.Grow(&d.yBuf, x.Shape...)
	copy(y.Data, x.Data)
	if !train || d.Rate == 0 {
		d.keep = nil
		return y
	}
	if cap(d.keep) < len(y.Data) {
		d.keep = make([]bool, len(y.Data))
	}
	d.keep = d.keep[:len(y.Data)]
	scale := 1 / (1 - d.Rate)
	for i := range y.Data {
		if d.rng.Float64() < d.Rate {
			d.keep[i] = false
			y.Data[i] = 0
		} else {
			d.keep[i] = true
			y.Data[i] *= S(scale)
		}
	}
	return y
}

// Backward mirrors the forward mask.
func (d *Dropout[S]) Backward(dy *tensor.Tensor[S]) *tensor.Tensor[S] {
	dx := tensor.Grow(&d.dxBuf, dy.Shape...)
	copy(dx.Data, dy.Data)
	if d.keep == nil {
		return dx
	}
	scale := 1 / (1 - d.Rate)
	for i := range dx.Data {
		if d.keep[i] {
			dx.Data[i] *= S(scale)
		} else {
			dx.Data[i] = 0
		}
	}
	return dx
}

// Concat joins two NCHW tensors along the channel axis — the U-Net skip
// connection that concatenates encoder features onto the upsampled
// decoder features.
type Concat[S tensor.Scalar] struct {
	name               string
	aC, bC             int
	yBuf, daBuf, dbBuf *tensor.Tensor[S]
}

// NewConcat returns a channel-concatenation "layer" with a two-input
// Join/backward-split API instead of the single-input Forward/Backward.
func NewConcat[S tensor.Scalar](name string) *Concat[S] { return &Concat[S]{name: name} }

// Name identifies the join in diagnostics.
func (c *Concat[S]) Name() string { return c.name }

// Join concatenates a and b along channels.
func (c *Concat[S]) Join(a, b *tensor.Tensor[S]) *tensor.Tensor[S] {
	if len(a.Shape) != 4 || len(b.Shape) != 4 ||
		a.Shape[0] != b.Shape[0] || a.Shape[2] != b.Shape[2] || a.Shape[3] != b.Shape[3] {
		panic(fmt.Sprintf("nn: %s cannot concat %v and %v", c.name, a.Shape, b.Shape))
	}
	n, h, w := a.Shape[0], a.Shape[2], a.Shape[3]
	c.aC, c.bC = a.Shape[1], b.Shape[1]
	y := tensor.Grow(&c.yBuf, n, c.aC+c.bC, h, w)
	plane := h * w
	for img := 0; img < n; img++ {
		copy(y.Data[img*(c.aC+c.bC)*plane:], a.Data[img*c.aC*plane:(img+1)*c.aC*plane])
		copy(y.Data[(img*(c.aC+c.bC)+c.aC)*plane:], b.Data[img*c.bC*plane:(img+1)*c.bC*plane])
	}
	return y
}

// Split divides the joined gradient back into the two inputs' gradients.
func (c *Concat[S]) Split(dy *tensor.Tensor[S]) (da, db *tensor.Tensor[S]) {
	n, h, w := dy.Shape[0], dy.Shape[2], dy.Shape[3]
	plane := h * w
	da = tensor.Grow(&c.daBuf, n, c.aC, h, w)
	db = tensor.Grow(&c.dbBuf, n, c.bC, h, w)
	for img := 0; img < n; img++ {
		copy(da.Data[img*c.aC*plane:(img+1)*c.aC*plane], dy.Data[img*(c.aC+c.bC)*plane:])
		copy(db.Data[img*c.bC*plane:(img+1)*c.bC*plane], dy.Data[(img*(c.aC+c.bC)+c.aC)*plane:])
	}
	return da, db
}
