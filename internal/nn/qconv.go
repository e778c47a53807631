package nn

import (
	"fmt"
	"math"
	"slices"

	"seaice/internal/tensor"
)

// Quantized inference layers. These are forward-only, int8 counterparts
// of Conv2D / ConvTranspose2x2, built post-training from a float master's
// weights plus calibrated activation ranges (unet.Calibrate). The design
// follows the int8 rung of the precision policy:
//
//   - Activations are uint8 in [0, 127] (tensor.QuantMax) and live in
//     QAct buffers: NHWC, channels innermost and padded to a multiple of
//     four, with a one-pixel halo around every image that holds the
//     tensor's zero-point byte. A 3×3 window is then three contiguous
//     3·C-byte runs a buffer row apart and a 1×1 window is one C-byte run
//     — the integer kernel (tensor.Int8Ops.ConvU8S8) reads both in place,
//     so nothing is gathered or copied between layers, and each layer's
//     epilogue writes straight into the interior of the next one's buffer.
//   - Weights are per-output-channel symmetric int8, quantized tap-major
//     (w[oc][t·InC+c]) and then packed once, per input source, into the
//     kernel's [k/4][OutC→8][4] layout; pad channels and pad lanes carry
//     zero weights. The per-input-channel activation scale is folded INTO
//     the float weights before quantization, which is what lets the
//     decoder's concatenated skip+up inputs (two different quantizations)
//     share one integer sum: the second source accumulates onto the first.
//   - Zero-points fold into the bias exactly: conv ≈ s_w·(acc − Σ_c z_c·Σ_t wq),
//     provided out-of-image taps contribute the input's zero-point byte —
//     the halo rule: QAct.Reshape fills a buffer with its zero-point
//     whenever its shape changes, and layers only ever write the interior.
//   - The integer sums run on the active tensor.Int8 backend, one output
//     row at a time into a row of int32 accumulators that never leaves L1;
//     the requantization epilogue is the same backend's RequantRow over
//     that row, its per-channel constants laid out once at construction
//     (tensor.RequantTable). Both entries are conformance-tested against
//     the scalar definitions, so backend choice never changes an output
//     bit.

// QAct is one batch of quantized activations in the layout above:
// (N, H+2, W+2, Stride()) bytes, logical pixel (y, x) of image n at
// padded position (y+1, x+1).
type QAct struct {
	Data       []uint8
	N, H, W, C int
	Zero       uint8 // the tensor's zero-point: the halo (and pad-channel) byte
}

// QIn describes one input source of a quantized layer: its channel count
// and the quantization of the tensor it will read.
type QIn struct {
	C int
	Q tensor.ActQuant
}

// Stride is the byte distance between neighbouring pixels: C rounded up
// to the kernel's four-byte tap group.
func (a *QAct) Stride() int { return (a.C + 3) &^ 3 }

// Reshape sizes the buffer for an (n, h, w, c) tensor with zero-point
// zero, reusing storage when it can. A call that changes nothing keeps
// the buffer as is — the halo is intact because layers write only the
// interior; any change refills the whole buffer with the zero-point,
// which re-establishes the halo.
func (a *QAct) Reshape(n, h, w, c int, zero uint8) {
	if a.Data != nil && a.N == n && a.H == h && a.W == w && a.C == c && a.Zero == zero {
		return
	}
	a.N, a.H, a.W, a.C, a.Zero = n, h, w, c, zero
	size := n * (h + 2) * (w + 2) * a.Stride()
	if cap(a.Data) < size {
		a.Data = make([]uint8, size)
	}
	a.Data = a.Data[:size]
	if size > 0 { // fill by doubling copies: memmove speed, any byte value
		a.Data[0] = zero
		for i := 1; i < size; i *= 2 {
			copy(a.Data[i:], a.Data[:i])
		}
	}
}

// from returns the buffer from padded position (y, x) of image img on.
func (a *QAct) from(img, y, x int) []uint8 {
	return a.Data[((img*(a.H+2)+y)*(a.W+2)+x)*a.Stride():]
}

// Row returns interior row y of image img: W pixels, Stride() apart.
func (a *QAct) Row(img, y int) []uint8 { return a.from(img, y+1, 1)[:a.W*a.Stride()] }

// packSource scatters channels [lo, lo+c) of the tap-major quantized
// matrix q (rows × taps·inC) into rows of taps·stride bytes — the source's
// channel padding gets zero weights — and packs them for the kernel.
func packSource(q []int8, rows, taps, inC, lo, c int) []byte {
	stride := (c + 3) &^ 3
	padded := make([]int8, rows*taps*stride)
	for r := 0; r < rows; r++ {
		for t := 0; t < taps; t++ {
			copy(padded[(r*taps+t)*stride:], q[(r*taps+t)*inC+lo:][:c])
		}
	}
	return tensor.PackInt8Weights(padded, rows, taps*stride)
}

// growAcc returns *buf resized to n accumulators, reallocating only when
// the capacity is insufficient.
func growAcc(buf *[]int32, n int) []int32 {
	*buf = slices.Grow((*buf)[:0], n)[:n]
	return *buf
}

// QConv is the quantized K×K stride-1 same-padded convolution (K = 1 or
// 3) over the virtual channel concat of one or two sources.
type QConv struct {
	Name      string
	InC, OutC int
	K         int
	src       []QIn
	w         [][]byte             // packed weights, one matrix per source
	requant   *tensor.RequantTable // per output channel: bias round(b/s_w) − Σ_c z_c·Σ_t wq, multiplier s_w/s_out
	OutZ      uint8
}

// NewQConv quantizes one float convolution. w is Conv2D's layout
// (outC, inC·k·k) with taps minor and inC the sum of the sources'
// channels in order; in gives each source's channel count and activation
// quantization (a concat input passes two), out the calibrated output
// quantization.
func NewQConv(name string, in []QIn, outC, k int, w, bias []float64, out tensor.ActQuant) (*QConv, error) {
	taps := k * k
	var chQ []tensor.ActQuant // per input channel, sources in order
	for _, s := range in {
		for i := 0; i < s.C; i++ {
			chQ = append(chQ, s.Q)
		}
	}
	inC := len(chQ)
	if len(w) != outC*inC*taps || len(bias) != outC || len(in) == 0 {
		return nil, fmt.Errorf("nn: NewQConv(%s) shape mismatch: %d weights, %d biases, %d sources for %d→%d k=%d",
			name, len(w), len(bias), len(in), inC, outC, k)
	}
	if inC*taps > tensor.Int8AccumBoundTaps {
		return nil, fmt.Errorf("nn: NewQConv(%s): %d taps exceeds the int32 accumulator bound %d",
			name, inC*taps, tensor.Int8AccumBoundTaps)
	}
	// Remap to tap-major and fold each input channel's scale into the
	// float weight, so the integer product is uniform in s_w.
	wf := make([]float64, outC*inC*taps)
	for oc := 0; oc < outC; oc++ {
		src := w[oc*inC*taps : (oc+1)*inC*taps]
		dst := wf[oc*inC*taps : (oc+1)*inC*taps]
		for c := 0; c < inC; c++ {
			for t := 0; t < taps; t++ {
				dst[t*inC+c] = src[c*taps+t] * chQ[c].Scale
			}
		}
	}
	q, scales := tensor.QuantizeWeightsPerChannel(wf, outC, inC*taps)

	c := &QConv{Name: name, InC: inC, OutC: outC, K: k, src: in, OutZ: out.Zero}
	lo := 0
	for _, s := range in {
		c.w = append(c.w, packSource(q, outC, taps, inC, lo, s.C))
		lo += s.C
	}
	lanes := make([]tensor.RequantLane, outC)
	for oc := range lanes {
		var zCorr int64
		for i, v := range q[oc*inC*taps : (oc+1)*inC*taps] {
			zCorr += int64(chQ[i%inC].Zero) * int64(v)
		}
		rq, err := tensor.NewRequantChecked(scales[oc] / out.Scale)
		if err != nil {
			return nil, fmt.Errorf("nn: NewQConv(%s): %w", name, err)
		}
		lanes[oc] = tensor.NewRequantLane(int32(int64(math.Round(bias[oc]/scales[oc]))-zCorr), rq)
	}
	c.requant = tensor.NewRequantTable(lanes)
	return c, nil
}

// mustFeed panics unless a is a tensor the layer was built to read from
// this source — a mismatch is a wiring bug, and a wrong halo byte would
// silently break the zero-point folding.
func (s QIn) mustFeed(layer string, a *QAct) {
	if a.C != s.C || a.Zero != s.Q.Zero {
		panic(fmt.Sprintf("nn: %s: input has %d channels, zero-point %d; built for %d and %d",
			layer, a.C, a.Zero, s.C, s.Q.Zero))
	}
}

// Forward applies the quantized convolution to its sources (same batch
// shape, channel counts as built), reshaping out to (N, H, W, OutC) and
// writing its interior. acc is grow-only int32 scratch the layer sizes
// to one output row. The lower clamp of the requantization IS the ReLU
// when OutZ == 0.
func (c *QConv) Forward(out *QAct, acc *[]int32, in ...*QAct) {
	if len(in) != len(c.src) {
		panic(fmt.Sprintf("nn: %s: %d inputs for %d sources", c.Name, len(in), len(c.src)))
	}
	n, h, w := in[0].N, in[0].H, in[0].W
	for i, a := range in {
		c.src[i].mustFeed(c.Name, a)
		if a.N != n || a.H != h || a.W != w {
			panic(fmt.Sprintf("nn: %s: input %d is %dx%dx%d, input 0 %dx%dx%d", c.Name, i, a.N, a.H, a.W, n, h, w))
		}
	}
	out.Reshape(n, h, w, c.OutC, c.OutZ)
	ops := tensor.Int8()
	ocPad := tensor.Int8LanePad(c.OutC)
	row := growAcc(acc, w*ocPad)
	pad := c.K / 2
	for img := 0; img < n; img++ {
		for y := 0; y < h; y++ {
			for i, a := range in {
				st := a.Stride()
				ops.ConvU8S8(row, a.from(img, y+1-pad, 1-pad), c.w[i], w, st, c.K, c.K*st, (w+2)*st, ocPad, i > 0)
			}
			ops.RequantRow(out.Row(img, y), out.Stride(), row, ocPad, w, c.requant, c.OutZ)
		}
	}
}

// QMaxPool2 is the 2×2 stride-2 max pool: max is monotone, so the output
// reuses the input's quantization (and zero-point halo) unchanged.
func QMaxPool2(out, in *QAct) {
	out.Reshape(in.N, in.H/2, in.W/2, in.C, in.Zero)
	c := in.Stride()
	for img := 0; img < in.N; img++ {
		for y := 0; y < out.H; y++ {
			r0, r1 := in.Row(img, 2*y), in.Row(img, 2*y+1)
			drow := out.Row(img, y)
			for x := 0; x < out.W; x++ {
				a := r0[2*x*c : (2*x+1)*c]
				b := r0[(2*x+1)*c : (2*x+2)*c]
				e := r1[2*x*c : (2*x+1)*c]
				f := r1[(2*x+1)*c : (2*x+2)*c]
				d := drow[x*c : (x+1)*c]
				for i := range d {
					d[i] = max(a[i], b[i], e[i], f[i])
				}
			}
		}
	}
}

// QConvT is the quantized 2×2 stride-2 transposed convolution. With
// non-overlapping output blocks it is a 1×1 convolution to 4·OutC
// channels — one group of OutC per kernel tap — whose epilogue scatters
// each tap's group to its output parity. Its output is not ReLU-clamped,
// so it carries a nonzero zero-point when the calibrated range dips
// below zero.
type QConvT struct {
	Name      string
	InC, OutC int
	src       QIn
	w         []byte                  // packed, rows tap·OutC+oc
	requant   [4]*tensor.RequantTable // per tap, OutC lanes each
	OutZ      uint8
}

// NewQConvT quantizes a float ConvTranspose2x2: w is its layout
// (inC, outC·4) — w[ic][oc·4+tap] — bias len outC.
func NewQConvT(name string, in QIn, outC int, w, bias []float64, out tensor.ActQuant) (*QConvT, error) {
	inC := in.C
	if len(w) != inC*outC*4 || len(bias) != outC {
		return nil, fmt.Errorf("nn: NewQConvT(%s) shape mismatch: %d weights, %d biases for %d→%d",
			name, len(w), len(bias), inC, outC)
	}
	rows := 4 * outC
	wf := make([]float64, rows*inC)
	for tap := 0; tap < 4; tap++ {
		for oc := 0; oc < outC; oc++ {
			for ic := 0; ic < inC; ic++ {
				wf[(tap*outC+oc)*inC+ic] = w[ic*outC*4+oc*4+tap] * in.Q.Scale
			}
		}
	}
	q, scales := tensor.QuantizeWeightsPerChannel(wf, rows, inC)
	u := &QConvT{
		Name: name, InC: inC, OutC: outC, src: in,
		w:    packSource(q, rows, 1, inC, 0, inC),
		OutZ: out.Zero,
	}
	lanes := make([]tensor.RequantLane, rows)
	for r := range lanes {
		var sumW int64
		for _, v := range q[r*inC : (r+1)*inC] {
			sumW += int64(v)
		}
		rq, err := tensor.NewRequantChecked(scales[r] / out.Scale)
		if err != nil {
			return nil, fmt.Errorf("nn: NewQConvT(%s): %w", name, err)
		}
		lanes[r] = tensor.NewRequantLane(int32(int64(math.Round(bias[r%outC]/scales[r]))-int64(in.Q.Zero)*sumW), rq)
	}
	for tap := range u.requant {
		u.requant[tap] = tensor.NewRequantTable(lanes[tap*outC : (tap+1)*outC])
	}
	return u, nil
}

// Forward applies the up-convolution to the (N, H, W, InC) input,
// reshaping out to (N, 2H, 2W, OutC) and writing its interior: input
// pixel (y, x)'s tap (ty, tx) lands at (2y+ty, 2x+tx). acc is grow-only
// scratch for one input row's 4·OutC sums.
func (u *QConvT) Forward(out *QAct, acc *[]int32, in *QAct) {
	u.src.mustFeed(u.Name, in)
	out.Reshape(in.N, 2*in.H, 2*in.W, u.OutC, u.OutZ)
	ops := tensor.Int8()
	ocPad := tensor.Int8LanePad(4 * u.OutC)
	row := growAcc(acc, in.W*ocPad)
	st, ost := in.Stride(), out.Stride()
	for img := 0; img < in.N; img++ {
		for y := 0; y < in.H; y++ {
			ops.ConvU8S8(row, in.Row(img, y), u.w, in.W, st, 1, st, 0, ocPad, false)
			for tap, rq := range u.requant {
				ops.RequantRow(out.Row(img, 2*y+tap/2)[tap%2*ost:], 2*ost, row[tap*u.OutC:], ocPad, in.W, rq, u.OutZ)
			}
		}
	}
}

// QHead is the quantized final 1×1 convolution fused with the argmax:
// it dequantizes its int32 accumulators to float logits (the classifier
// head needs no requantization — nothing consumes its quantized form)
// and emits per-pixel class labels with Predict's exact tie rule
// (strictly-greater wins, so ties resolve to the lowest class index).
type QHead struct {
	Classes, InC int
	src          QIn
	w            []byte
	Scale        []float64 // per class: the folded weight scale s_w
	ZCorr        []int32   // per class: Σ_c z_c·wq
	Bias         []float64
}

// NewQHead quantizes the final 1×1 convolution (w: (classes, inC)).
func NewQHead(in QIn, classes int, w, bias []float64) (*QHead, error) {
	inC := in.C
	if len(w) != classes*inC || len(bias) != classes {
		return nil, fmt.Errorf("nn: NewQHead shape mismatch: %d weights, %d biases for %d→%d",
			len(w), len(bias), inC, classes)
	}
	wf := make([]float64, classes*inC)
	for i, v := range w {
		wf[i] = v * in.Q.Scale
	}
	q, scales := tensor.QuantizeWeightsPerChannel(wf, classes, inC)
	hd := &QHead{
		Classes: classes, InC: inC, src: in,
		w:     packSource(q, classes, 1, inC, 0, inC),
		Scale: scales,
		ZCorr: make([]int32, classes),
		Bias:  append([]float64(nil), bias...),
	}
	for cl := 0; cl < classes; cl++ {
		var sumW int64
		for _, v := range q[cl*inC : (cl+1)*inC] {
			sumW += int64(v)
		}
		hd.ZCorr[cl] = int32(int64(in.Q.Zero) * sumW)
	}
	return hd, nil
}

// Forward classifies the (N, H, W, InC) input directly to N·H·W labels,
// pixel-major. acc is grow-only scratch for one row's class sums.
func (hd *QHead) Forward(labels []uint8, acc *[]int32, in *QAct) {
	hd.src.mustFeed("head", in)
	ops := tensor.Int8()
	ocPad := tensor.Int8LanePad(hd.Classes)
	row := growAcc(acc, in.W*ocPad)
	st := in.Stride()
	for img := 0; img < in.N; img++ {
		for y := 0; y < in.H; y++ {
			ops.ConvU8S8(row, in.Row(img, y), hd.w, in.W, st, 1, st, 0, ocPad, false)
			lrow := labels[(img*in.H+y)*in.W:][:in.W]
			for p := range lrow {
				a := row[p*ocPad:][:hd.Classes]
				best, bv := 0, hd.Scale[0]*float64(a[0]-hd.ZCorr[0])+hd.Bias[0]
				for cl := 1; cl < hd.Classes; cl++ {
					v := hd.Scale[cl]*float64(a[cl]-hd.ZCorr[cl]) + hd.Bias[cl]
					if v > bv {
						best, bv = cl, v
					}
				}
				lrow[p] = uint8(best)
			}
		}
	}
}
