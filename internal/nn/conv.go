package nn

import (
	"fmt"
	"math"

	"seaice/internal/noise"
	"seaice/internal/pool"
	"seaice/internal/tensor"
)

// Conv2D is a same-padded 2-D convolution with bias, the workhorse of the
// U-Net's double-convolution blocks (kernel 3×3, stride 1 in the paper).
//
// The layer exists in the paper's two kernel shapes only — 3×3 stride-1
// "same" and the final 1×1 (NewConv2D rejects any other) — and runs both
// through direct NCHW kernels (kernels.go): forward and the weight
// gradient never materialize an im2col matrix; the 3×3 input gradient
// still builds a dcols scratch (Wᵀ×dout folded by Col2ImInto) where the
// float32 Winograd path does not apply. All intermediates live in
// grow-only scratch buffers owned by the layer, so steady-state training
// steps allocate nothing. A layer supports one in-flight forward/backward
// pair at a time (see the package comment); outputs alias layer-owned
// memory and are valid until the layer's next Forward.
type Conv2D[S tensor.Scalar] struct {
	name             string
	InC, OutC        int
	KH, KW           int
	Stride, Pad      int
	Weight           *Param[S] // (OutC, InC·KH·KW)
	Bias             *Param[S] // (OutC)
	x                *tensor.Tensor[S]
	outH, outW, numN int

	// Grow-only scratch buffers, reused across steps.
	yBuf, doutBuf, dcolsBuf, dxBuf *tensor.Tensor[S]

	// wino is the lazily built F(4×4,3×3) transform engine the float32
	// instantiation routes its 3×3 forward and input gradient through
	// (2.25× fewer multiplies; tolerance-scoped, see Winograd). float64
	// layers never touch it — the master path keeps the direct kernels'
	// exact accumulation order.
	wino *Winograd[S]
}

// winogradOK reports whether this layer call takes the float32 Winograd
// fast path: float32 scalar, the 3×3 same-padded shape, and a plane the
// 4×4 tiling covers.
func (c *Conv2D[S]) winogradOK(h, w int) bool {
	return tensor.IsF32[S]() && c.direct3x3() && h%4 == 0 && w%4 == 0
}

// winograd returns the layer's transform engine, building it on first
// use (non-static: weights move every step, so filters re-transform per
// call).
func (c *Conv2D[S]) winograd() *Winograd[S] {
	if c.wino == nil {
		c.wino = NewWinograd[S](false)
	}
	return c.wino
}

// NewConv2D builds a convolution with He-normal initialization (the
// standard choice before ReLU), stride 1 and "same" padding. k must be 3
// or 1, the shapes the direct kernels implement; anything else is a
// programming error and panics.
func NewConv2D[S tensor.Scalar](name string, inC, outC, k int, rng *noise.RNG) *Conv2D[S] {
	if k != 1 && k != 3 {
		panic(fmt.Sprintf("nn: %s: Conv2D supports 3×3 and 1×1 kernels only, got %d×%d", name, k, k))
	}
	c := &Conv2D[S]{
		name: name,
		InC:  inC, OutC: outC,
		KH: k, KW: k,
		Stride: 1, Pad: k / 2,
	}
	c.Weight = &Param[S]{
		Name: name + ".weight",
		W:    tensor.New[S](outC, inC*k*k),
		Grad: tensor.New[S](outC, inC*k*k),
	}
	std := heStd(inC * k * k)
	c.Weight.W.FillRandn(rng, std)
	c.Bias = &Param[S]{
		Name: name + ".bias",
		W:    tensor.New[S](outC),
		Grad: tensor.New[S](outC),
	}
	return c
}

func heStd(fanIn int) float64 {
	if fanIn <= 0 {
		return 0.01
	}
	return math.Sqrt(2 / float64(fanIn))
}

// Name identifies the layer in diagnostics.
func (c *Conv2D[S]) Name() string { return c.name }

// Params lists the learnable parameters: weight, then bias.
func (c *Conv2D[S]) Params() []*Param[S] { return []*Param[S]{c.Weight, c.Bias} }

// direct3x3 reports whether the layer can run the fused 3×3 kernel.
func (c *Conv2D[S]) direct3x3() bool {
	return c.KH == 3 && c.KW == 3 && c.Stride == 1 && c.Pad == 1
}

// direct1x1 reports whether the layer can run the fused 1×1 kernel.
func (c *Conv2D[S]) direct1x1() bool {
	return c.KH == 1 && c.KW == 1 && c.Stride == 1 && c.Pad == 0
}

// Forward computes y = W·im2col(x) + b (conceptually; no im2col matrix
// is ever built).
func (c *Conv2D[S]) Forward(x *tensor.Tensor[S], train bool) *tensor.Tensor[S] {
	if len(x.Shape) != 4 || x.Shape[1] != c.InC {
		panic(fmt.Sprintf("nn: %s expects (N,%d,H,W), got %v", c.name, c.InC, x.Shape))
	}
	n, h, w := x.Shape[0], x.Shape[2], x.Shape[3]
	c.outH = (h+2*c.Pad-c.KH)/c.Stride + 1
	c.outW = (w+2*c.Pad-c.KW)/c.Stride + 1
	c.numN = n
	c.x = x

	y := tensor.Grow(&c.yBuf, n, c.OutC, c.outH, c.outW)
	switch {
	case c.direct1x1():
		Conv1x1Planes(pool.Shared(), c, x.Data, c.InC, n, h, w, y.Data)
	case c.winogradOK(h, w):
		c.winograd().ConvBatch(pool.Shared(), c, x.Data, n, h, w, y.Data, false)
	default:
		Conv3x3Planes(pool.Shared(), c, x.Data, c.InC, nil, 0, n, h, w, y.Data, false)
	}
	return y
}

// Backward computes input, weight, and bias gradients. The returned
// gradient aliases layer-owned memory, valid until the next Backward.
func (c *Conv2D[S]) Backward(dy *tensor.Tensor[S]) *tensor.Tensor[S] {
	n, plane := c.numN, c.outH*c.outW
	// reorder dy (N,OutC,OH,OW) → (OutC, N·OH·OW)
	dout := tensor.Grow(&c.doutBuf, c.OutC, n*plane)
	for oc := 0; oc < c.OutC; oc++ {
		for img := 0; img < n; img++ {
			src := dy.Data[(img*c.OutC+oc)*plane : (img*c.OutC+oc+1)*plane]
			dst := dout.Data[oc*n*plane+img*plane : oc*n*plane+(img+1)*plane]
			copy(dst, src)
		}
	}

	// bias gradient: sum over positions
	for oc := 0; oc < c.OutC; oc++ {
		var sum S
		for _, v := range dout.Data[oc*n*plane : (oc+1)*n*plane] {
			sum += v
		}
		c.Bias.Grad.Data[oc] += sum
	}

	h, w := c.x.Shape[2], c.x.Shape[3]

	// weight gradient, then input gradient
	dx := tensor.Grow(&c.dxBuf, n, c.InC, h, w)
	if c.direct1x1() {
		conv1x1WeightGrad(c, c.x.Data, dout.Data, n, h, w)
		conv1x1InputGrad(c, dout.Data, n, h, w, dx.Data)
		return dx
	}
	conv3x3WeightGrad(c, c.x.Data, dout.Data, n, h, w)
	if c.winogradOK(h, w) {
		c.winograd().InputGradBatch(pool.Shared(), c, dout.Data, n, h, w, dx.Data)
		return dx
	}
	dcols := tensor.Grow(&c.dcolsBuf, c.InC*c.KH*c.KW, n*plane)
	tensor.MatMulATBInto(dcols, c.Weight.W, dout)
	tensor.Col2ImInto(dx, dcols, c.KH, c.KW, c.Stride, c.Pad)
	return dx
}

// ConvTranspose2x2 is the paper's "up-convolution": a 2×2 transposed
// convolution with stride 2 that doubles spatial resolution and halves
// the channel count on the U-Net's expansion path. Like Conv2D it owns
// grow-only scratch buffers and allocates nothing at steady state.
type ConvTranspose2x2[S tensor.Scalar] struct {
	name      string
	InC, OutC int
	Weight    *Param[S] // (InC, OutC·2·2)
	Bias      *Param[S] // (OutC)
	x         *tensor.Tensor[S]

	yBuf, dxBuf *tensor.Tensor[S]
}

// NewConvTranspose2x2 builds the up-convolution with He initialization.
func NewConvTranspose2x2[S tensor.Scalar](name string, inC, outC int, rng *noise.RNG) *ConvTranspose2x2[S] {
	u := &ConvTranspose2x2[S]{name: name, InC: inC, OutC: outC}
	u.Weight = &Param[S]{
		Name: name + ".weight",
		W:    tensor.New[S](inC, outC*4),
		Grad: tensor.New[S](inC, outC*4),
	}
	u.Weight.W.FillRandn(rng, heStd(inC))
	u.Bias = &Param[S]{
		Name: name + ".bias",
		W:    tensor.New[S](outC),
		Grad: tensor.New[S](outC),
	}
	return u
}

// Name identifies the layer in diagnostics.
func (u *ConvTranspose2x2[S]) Name() string { return u.name }

// Params lists the learnable parameters: weight, then bias.
func (u *ConvTranspose2x2[S]) Params() []*Param[S] { return []*Param[S]{u.Weight, u.Bias} }

// Forward scatters each input pixel into a 2×2 output block: with stride
// 2 and kernel 2 the blocks do not overlap, so the transposed convolution
// reduces to a per-pixel linear map from InC to OutC·4.
func (u *ConvTranspose2x2[S]) Forward(x *tensor.Tensor[S], train bool) *tensor.Tensor[S] {
	if len(x.Shape) != 4 || x.Shape[1] != u.InC {
		panic(fmt.Sprintf("nn: %s expects (N,%d,H,W), got %v", u.name, u.InC, x.Shape))
	}
	u.x = x
	n, h, w := x.Shape[0], x.Shape[2], x.Shape[3]
	y := tensor.Grow(&u.yBuf, n, u.OutC, 2*h, 2*w)
	// The GEMM-ordered weights are rebuilt every call (they move every
	// step) into borrowed scratch, as is the product: nothing is cached
	// on the layer, which sessions share.
	sc := getScratch[S](4*u.OutC*u.InC, len(y.Data))
	ConvT2x2Weights(u, sc.a)
	ConvT2x2Planes(pool.Shared(), u, sc.a, x.Data, n, h, w, y.Data, sc.b)
	scratchPool.Put(sc)
	return y
}

// Backward gathers gradients from each 2×2 block. Input channels own
// disjoint slices of the weight gradient and of dx, so the channel loop
// runs on the shared pool; per gradient element the accumulation order
// (images ascending, rows ascending) matches the serial reference.
func (u *ConvTranspose2x2[S]) Backward(dy *tensor.Tensor[S]) *tensor.Tensor[S] {
	n, h, w := u.x.Shape[0], u.x.Shape[2], u.x.Shape[3]
	dx := tensor.Grow(&u.dxBuf, n, u.InC, h, w)
	dx.Zero()
	plane := 4 * h * w

	// bias gradient: per out-channel, images ascending as in the reference
	for oc := 0; oc < u.OutC; oc++ {
		for img := 0; img < n; img++ {
			dyp := dy.Data[(img*u.OutC+oc)*plane : (img*u.OutC+oc+1)*plane]
			var sum S
			for _, v := range dyp {
				sum += v
			}
			u.Bias.Grad.Data[oc] += sum
		}
	}

	xd, dyd := u.x.Data, dy.Data
	poolMapChannels(u.InC, func(ic int) {
		wrow := u.Weight.W.Data[ic*u.OutC*4 : (ic+1)*u.OutC*4]
		growSlice := u.Weight.Grad.Data[ic*u.OutC*4 : (ic+1)*u.OutC*4]
		for img := 0; img < n; img++ {
			xp := xd[(img*u.InC+ic)*h*w : (img*u.InC+ic+1)*h*w]
			dxp := dx.Data[(img*u.InC+ic)*h*w : (img*u.InC+ic+1)*h*w]
			for oc := 0; oc < u.OutC; oc++ {
				k := wrow[oc*4 : oc*4+4]
				k0, k1, k2, k3 := k[0], k[1], k[2], k[3]
				gk := growSlice[oc*4 : oc*4+4]
				dyp := dyd[(img*u.OutC+oc)*plane : (img*u.OutC+oc+1)*plane]
				g0s, g1s, g2s, g3s := gk[0], gk[1], gk[2], gk[3]
				for iy := 0; iy < h; iy++ {
					row0 := dyp[(2*iy)*(2*w):]
					row1 := dyp[(2*iy+1)*(2*w):]
					xr := xp[iy*w : (iy+1)*w]
					dxr := dxp[iy*w : (iy+1)*w]
					for ix := range xr {
						g0, g1, g2, g3 := row0[2*ix], row0[2*ix+1], row1[2*ix], row1[2*ix+1]
						dxr[ix] += g0*k0 + g1*k1 + g2*k2 + g3*k3
						v := xr[ix]
						g0s += v * g0
						g1s += v * g1
						g2s += v * g2
						g3s += v * g3
					}
				}
				gk[0], gk[1], gk[2], gk[3] = g0s, g1s, g2s, g3s
			}
		}
	})
	return dx
}
