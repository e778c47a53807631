package nn

import (
	"sync"

	"seaice/internal/pool"
	"seaice/internal/tensor"
)

// Direct NCHW convolution kernels shared by the training engine (Conv2D,
// ConvTranspose2x2) and the inference session in internal/unet. They avoid
// materializing im2col matrices and fuse bias (and optionally ReLU) into
// the output pass. Accumulation order per output element matches the
// im2col matrix product exactly — channel-major, then kernel row, then
// kernel column, bias last — with zero-padding taps skipped (those
// contribute an exact +0 in the im2col formulation), so results are
// bit-identical to the reference path.

// Conv3x3Planes computes a same-padded 3×3 stride-1 convolution with fused
// bias (and optionally ReLU) directly on NCHW planes. The input may be
// split across two backing buffers to virtualize the U-Net skip
// concatenation: channels [0, ca) read from xa, channels [ca, ca+cb) from
// xb. Output planes are independent, so the (image, out-channel) pairs are
// distributed over the provided pool; pass pool.Serial() from contexts
// that supply their own concurrency (e.g. per-worker inference sessions).
func Conv3x3Planes[S tensor.Scalar](p *pool.Pool, c *Conv2D[S], xa []S, ca int, xb []S, cb int, n, h, w int, dst []S, relu bool) {
	inC := ca + cb
	plane := h * w
	tasks := n * c.OutC
	minGrain := 1
	if g := (1 << 14) / (plane*inC + 1); g > 1 {
		minGrain = g // keep at least ~16k tap-multiplies per task
	}
	if p.Workers() == 1 {
		conv3x3Range(c, xa, ca, xb, cb, h, w, dst, relu, 0, tasks)
		return
	}
	p.MustMapRanges(tasks, minGrain, func(lo, hi int) {
		conv3x3Range(c, xa, ca, xb, cb, h, w, dst, relu, lo, hi)
	})
}

// conv3x3Range computes (image, out-channel) pairs [lo,hi).
func conv3x3Range[S tensor.Scalar](c *Conv2D[S], xa []S, ca int, xb []S, cb int, h, w int, dst []S, relu bool, lo, hi int) {
	inC := ca + cb
	plane := h * w
	wd := c.Weight.W.Data
	for t := lo; t < hi; t++ {
		img, oc := t/c.OutC, t%c.OutC
		dp := dst[(img*c.OutC+oc)*plane : (img*c.OutC+oc+1)*plane]
		for i := range dp {
			dp[i] = 0
		}
		wrow := wd[oc*inC*9 : (oc+1)*inC*9]
		for ic := 0; ic < inC; ic++ {
			var xp []S
			if ic < ca {
				xp = xa[(img*ca+ic)*plane : (img*ca+ic+1)*plane]
			} else {
				xp = xb[(img*cb+ic-ca)*plane : (img*cb+ic-ca+1)*plane]
			}
			Acc3x3(dp, xp, wrow[ic*9:ic*9+9], h, w)
		}
		b := c.Bias.W.Data[oc]
		if relu {
			for i, v := range dp {
				v += b
				if v < 0 {
					v = 0
				}
				dp[i] = v
			}
		} else {
			for i := range dp {
				dp[i] += b
			}
		}
	}
}

// Acc3x3 accumulates one input plane's 3×3 contribution into dst.
// Taps falling into the zero padding are skipped (they contribute
// exactly zero in the im2col formulation).
func Acc3x3[S tensor.Scalar](dst, xp, k []S, h, w int) {
	if w < 3 || h < 1 {
		acc3x3Small(dst, xp, k, h, w)
		return
	}
	w00, w01, w02 := k[0], k[1], k[2]
	w10, w11, w12 := k[3], k[4], k[5]
	w20, w21, w22 := k[6], k[7], k[8]
	for oy := 0; oy < h; oy++ {
		d := dst[oy*w : (oy+1)*w]
		r1 := xp[oy*w : (oy+1)*w]
		var r0, r2 []S
		if oy > 0 {
			r0 = xp[(oy-1)*w : oy*w]
		}
		if oy < h-1 {
			r2 = xp[(oy+1)*w : (oy+2)*w]
		}
		switch {
		case r0 != nil && r2 != nil:
			// Interior rows: fully unrolled 9-tap kernel.
			acc := d[0]
			acc += w01 * r0[0]
			acc += w02 * r0[1]
			acc += w11 * r1[0]
			acc += w12 * r1[1]
			acc += w21 * r2[0]
			acc += w22 * r2[1]
			d[0] = acc
			for ox := 1; ox < w-1; ox++ {
				acc := d[ox]
				acc += w00 * r0[ox-1]
				acc += w01 * r0[ox]
				acc += w02 * r0[ox+1]
				acc += w10 * r1[ox-1]
				acc += w11 * r1[ox]
				acc += w12 * r1[ox+1]
				acc += w20 * r2[ox-1]
				acc += w21 * r2[ox]
				acc += w22 * r2[ox+1]
				d[ox] = acc
			}
			acc = d[w-1]
			acc += w00 * r0[w-2]
			acc += w01 * r0[w-1]
			acc += w10 * r1[w-2]
			acc += w11 * r1[w-1]
			acc += w20 * r2[w-2]
			acc += w21 * r2[w-1]
			d[w-1] = acc
		case r2 != nil:
			// Top row (no r0).
			acc := d[0]
			acc += w11 * r1[0]
			acc += w12 * r1[1]
			acc += w21 * r2[0]
			acc += w22 * r2[1]
			d[0] = acc
			for ox := 1; ox < w-1; ox++ {
				acc := d[ox]
				acc += w10 * r1[ox-1]
				acc += w11 * r1[ox]
				acc += w12 * r1[ox+1]
				acc += w20 * r2[ox-1]
				acc += w21 * r2[ox]
				acc += w22 * r2[ox+1]
				d[ox] = acc
			}
			acc = d[w-1]
			acc += w10 * r1[w-2]
			acc += w11 * r1[w-1]
			acc += w20 * r2[w-2]
			acc += w21 * r2[w-1]
			d[w-1] = acc
		case r0 != nil:
			// Bottom row (no r2).
			acc := d[0]
			acc += w01 * r0[0]
			acc += w02 * r0[1]
			acc += w11 * r1[0]
			acc += w12 * r1[1]
			d[0] = acc
			for ox := 1; ox < w-1; ox++ {
				acc := d[ox]
				acc += w00 * r0[ox-1]
				acc += w01 * r0[ox]
				acc += w02 * r0[ox+1]
				acc += w10 * r1[ox-1]
				acc += w11 * r1[ox]
				acc += w12 * r1[ox+1]
				d[ox] = acc
			}
			acc = d[w-1]
			acc += w00 * r0[w-2]
			acc += w01 * r0[w-1]
			acc += w10 * r1[w-2]
			acc += w11 * r1[w-1]
			d[w-1] = acc
		default:
			// Single-row plane.
			acc3x3Small(dst[oy*w:(oy+1)*w], r1, k, 1, w)
		}
	}
}

// acc3x3Small is the fully guarded fallback for planes too small for the
// unrolled kernel.
func acc3x3Small[S tensor.Scalar](dst, xp, k []S, h, w int) {
	for oy := 0; oy < h; oy++ {
		for ox := 0; ox < w; ox++ {
			acc := dst[oy*w+ox]
			for ky := 0; ky < 3; ky++ {
				iy := oy + ky - 1
				if iy < 0 || iy >= h {
					continue
				}
				for kx := 0; kx < 3; kx++ {
					ix := ox + kx - 1
					if ix < 0 || ix >= w {
						continue
					}
					acc += k[ky*3+kx] * xp[iy*w+ix]
				}
			}
			dst[oy*w+ox] = acc
		}
	}
}

// Conv1x1Planes computes a 1×1 convolution with bias on NCHW planes.
func Conv1x1Planes[S tensor.Scalar](p *pool.Pool, c *Conv2D[S], x []S, inC, n, h, w int, dst []S) {
	if p.Workers() == 1 {
		conv1x1Range(c, x, inC, h, w, dst, 0, n*c.OutC)
		return
	}
	p.MustMapRanges(n*c.OutC, 1, func(lo, hi int) {
		conv1x1Range(c, x, inC, h, w, dst, lo, hi)
	})
}

// conv1x1Range computes (image, out-channel) pairs [lo,hi).
func conv1x1Range[S tensor.Scalar](c *Conv2D[S], x []S, inC, h, w int, dst []S, lo, hi int) {
	plane := h * w
	wd := c.Weight.W.Data
	for t := lo; t < hi; t++ {
		img, oc := t/c.OutC, t%c.OutC
		dp := dst[(img*c.OutC+oc)*plane : (img*c.OutC+oc+1)*plane]
		for i := range dp {
			dp[i] = 0
		}
		for ic := 0; ic < inC; ic++ {
			wv := wd[oc*inC+ic]
			xp := x[(img*inC+ic)*plane : (img*inC+ic+1)*plane]
			for i, v := range xp {
				dp[i] += wv * v
			}
		}
		b := c.Bias.W.Data[oc]
		for i := range dp {
			dp[i] += b
		}
	}
}

// MaxPool2Planes applies 2×2 stride-2 max pooling over nc planes of h×w.
func MaxPool2Planes[S tensor.Scalar](x []S, nc, h, w int, dst []S) {
	oh, ow := h/2, w/2
	for p := 0; p < nc; p++ {
		base := p * h * w
		oi := p * oh * ow
		for oy := 0; oy < oh; oy++ {
			i0 := base + (2*oy)*w
			i1 := base + (2*oy+1)*w
			for ox := 0; ox < ow; ox++ {
				bv := x[i0+2*ox]
				if v := x[i0+2*ox+1]; v > bv {
					bv = v
				}
				if v := x[i1+2*ox]; v > bv {
					bv = v
				}
				if v := x[i1+2*ox+1]; v > bv {
					bv = v
				}
				dst[oi] = bv
				oi++
			}
		}
	}
}

// ConvT2x2Weights writes u's weights into a in the order ConvT2x2Planes
// multiplies them: a (4·OutC × InC) matrix whose row d·OutC+oc holds tap
// d = 2·dy+dx of output channel oc for every input channel.
func ConvT2x2Weights[S tensor.Scalar](u *ConvTranspose2x2[S], a []S) {
	wd := u.Weight.W.Data // (InC, OutC·4)
	for ic := 0; ic < u.InC; ic++ {
		for oc := 0; oc < u.OutC; oc++ {
			for d, v := range wd[(ic*u.OutC+oc)*4 : (ic*u.OutC+oc)*4+4] {
				a[(d*u.OutC+oc)*u.InC+ic] = v
			}
		}
	}
}

// ConvT2x2Planes computes the stride-2 2×2 transposed convolution with
// bias on NCHW planes, one GEMM per image on the active float backend's
// panel: C (4·OutC × h·w) = A · X_img (InC × h·w), with A from
// ConvT2x2Weights, then row d·OutC+oc of C is scattered to the (dy, dx)
// positions of output plane oc's 2×2 blocks and the bias added. Per
// element that is the reference's chain — +0, the input channels in
// ascending order, bias last — so results are bit-identical to it on
// every backend. c is scratch for the n products (n·4·OutC·h·w). Images
// are independent, so they are distributed over the provided pool.
func ConvT2x2Planes[S tensor.Scalar](p *pool.Pool, u *ConvTranspose2x2[S], a, x []S, n, h, w int, dst, c []S) {
	if p.Workers() == 1 {
		convT2x2Images(u, a, x, h, w, dst, c, 0, n)
		return
	}
	p.MustMapRanges(n, 1, func(lo, hi int) {
		convT2x2Images(u, a, x, h, w, dst, c, lo, hi)
	})
}

// convT2x2Images computes images [lo,hi) of ConvT2x2Planes.
func convT2x2Images[S tensor.Scalar](u *ConvTranspose2x2[S], a, x []S, h, w int, dst, c []S, lo, hi int) {
	hw, rows := h*w, 4*u.OutC
	for img := lo; img < hi; img++ {
		ci := c[img*rows*hw : (img+1)*rows*hw]
		tensor.GemmSerial(ci, a, x[img*u.InC*hw:(img+1)*u.InC*hw], rows, u.InC, hw)
		for oc := 0; oc < u.OutC; oc++ {
			b := u.Bias.W.Data[oc]
			yp := dst[(img*u.OutC+oc)*4*hw : (img*u.OutC+oc+1)*4*hw]
			for iy := 0; iy < h; iy++ {
				var t [4][]S // tap d's input row iy
				for d := range t {
					t[d] = ci[(d*u.OutC+oc)*hw+iy*w : (d*u.OutC+oc)*hw+iy*w+w]
				}
				row0 := yp[(2*iy)*(2*w) : (2*iy+1)*(2*w)]
				row1 := yp[(2*iy+1)*(2*w) : (2*iy+2)*(2*w)]
				for ix := range t[0] {
					row0[2*ix], row0[2*ix+1] = t[0][ix]+b, t[1][ix]+b
					row1[2*ix], row1[2*ix+1] = t[2][ix]+b, t[3][ix]+b
				}
			}
		}
	}
}

// taskScratch is the pair of work buffers one kernel task borrows: the
// Winograd V and M batches of a (image, tile-row) range, or the im2col
// block and dW accumulator of a GEMM-form weight gradient — or one
// training up-convolution call borrows: its GEMM-ordered weights and its
// products. The pool is shared by every layer, so a process holds about
// one pair per concurrently running task — not one per layer — each
// grown to the largest request it has served (the task users bound
// theirs to a few hundred KiB; the up-convolution's products are the
// size of its output); sync.Pool keeps steady-state allocation near zero
// without needing worker identities from the compute pool.
type taskScratch[S tensor.Scalar] struct{ a, b []S }

var scratchPool sync.Pool

// getScratch borrows a pair with the requested lengths; return it with
// scratchPool.Put. Contents are stale.
func getScratch[S tensor.Scalar](asz, bsz int) *taskScratch[S] {
	sc, _ := scratchPool.Get().(*taskScratch[S]) // a pair of the other precision is dropped
	if sc == nil {
		sc = &taskScratch[S]{}
	}
	if cap(sc.a) < asz {
		sc.a = make([]S, asz)
	}
	if cap(sc.b) < bsz {
		sc.b = make([]S, bsz)
	}
	sc.a, sc.b = sc.a[:asz], sc.b[:bsz]
	return sc
}

// poolMapChannels runs fn(c) for every channel in [0, n) on the shared
// pool; channels own disjoint output slices so no synchronization is
// needed beyond the pool's join.
func poolMapChannels(n int, fn func(c int)) {
	p := pool.Shared()
	if p.Workers() == 1 {
		for c := 0; c < n; c++ {
			fn(c)
		}
		return
	}
	p.MustMapRanges(n, 1, func(lo, hi int) {
		for c := lo; c < hi; c++ {
			fn(c)
		}
	})
}

// conv3x3WeightGrad accumulates the weight gradient of a same-padded 3×3
// stride-1 convolution from the input planes and the output-channel-major
// gradient dout (OutC, N·H·W). Per (oc, ic, tap) element both forms below
// run one accumulator chain over the (image, row, column ascending) pixel
// order and add it to Grad once — the per-element order of
// dW = dout × colsᵀ — so they are bit-identical on finite gradients.
//
// The direct form (conv3x3WeightGradRange) reads the input planes in
// place, nine independent chains per (oc, ic) pair, skipping zero-padding
// taps; out-channel rows are disjoint, so they parallelize freely. It is
// a scalar loop. When the float backend's GEMM panel is vectorised
// (float32 with AVX2) the gradient is instead computed as that GEMM
// (conv3x3WeightGradGemm), whose padding taps contribute exact +0 terms:
// adding ±0 never changes a chain that started at +0, so only a
// non-finite dout element — already a guard-tripping step — can tell the
// two apart (Inf·0 is NaN where the direct form skipped the tap).
func conv3x3WeightGrad[S tensor.Scalar](c *Conv2D[S], x []S, dout []S, n, h, w int) {
	p := pool.Shared()
	if ops := tensor.Float[S](); ops.SIMD {
		conv3x3WeightGradGemm(p, ops, c, x, dout, n, h, w)
		return
	}
	if p.Workers() == 1 {
		conv3x3WeightGradRange(c, x, dout, n, h, w, 0, c.OutC)
		return
	}
	p.MustMapRanges(c.OutC, 1, func(lo, hi int) {
		conv3x3WeightGradRange(c, x, dout, n, h, w, lo, hi)
	})
}

// weightGradBlock is the most pixels one im2col block of the GEMM-form
// weight gradient holds, and weightGradFloats the most floats: that
// bounds the borrowed scratch at 256 KiB (a whole-layer P×InC·9 matrix
// would be megabytes per layer) and keeps the block L2-resident between
// its build and the product that consumes it.
const (
	weightGradBlock  = 1024
	weightGradFloats = 1 << 16
)

// conv3x3WeightGradGemm computes dW = dout (OutC×P) × colsᵀ (P×InC·9) on
// the backend's GEMM panel, k-blocked over pixels: each block of up to
// weightGradBlock pixels is gathered pixel-major (one row of InC·9 taps
// per pixel, zeros for padding) and multiplied into an accumulator that
// the next block's panel continues, so every dW element is one chain
// over all P pixels, as in the direct form; Grad += that chain at the
// end. Both the gather (over pixels) and the product (over four-row
// blocks of out-channels) fan out on the pool, and neither split touches
// a chain, so results are bit-identical at any worker count.
func conv3x3WeightGradGemm[S tensor.Scalar](p *pool.Pool, ops *tensor.FloatOps[S], c *Conv2D[S], x []S, dout []S, n, h, w int) {
	pixels, k9 := n*h*w, c.InC*9
	block := min(pixels, weightGradBlock, max(64, weightGradFloats/k9))
	sc := getScratch[S](block*k9, c.OutC*k9)
	cols, acc := sc.a, sc.b
	rowBlocks := (c.OutC + 3) / 4
	var p0, pb int // the current block, shared with the two range bodies
	gather := func(lo, hi int) { im2colPixels3x3(cols[lo*k9:hi*k9], x, c.InC, h, w, p0+lo, p0+hi) }
	product := func(lo, hi int) {
		r0, r1 := 4*lo, min(4*hi, c.OutC)
		ops.Panel(acc[r0*k9:], dout[r0*pixels+p0:], cols, r1-r0, pb, k9, pixels, 0, k9, p0 > 0)
	}
	for p0 = 0; p0 < pixels; p0 += block {
		pb = min(block, pixels-p0)
		if p.Workers() == 1 {
			gather(0, pb)
			product(0, rowBlocks)
			continue
		}
		p.MustMapRanges(pb, 64, gather)
		p.MustMapRanges(rowBlocks, 1, product)
	}
	gd := c.Weight.Grad.Data
	for i, s := range acc {
		gd[i] += s
	}
	scratchPool.Put(sc)
}

// im2colPixels3x3 gathers the 3×3 neighbourhoods of pixels [p0,p1) of the
// NCHW batch x (pixels numbered image-major, then row, then column) into
// cols, one row of InC·9 taps per pixel in (channel, kernel row, kernel
// column) order — the transpose of tensor.Im2ColRef's layout, so the pixel
// axis is the GEMM's k. Taps in the zero padding are written as 0.
func im2colPixels3x3[S tensor.Scalar](cols, x []S, inC, h, w, p0, p1 int) {
	plane := h * w
	for p := p0; p < p1; p++ {
		img, rem := p/plane, p%plane
		oy, ox := rem/w, rem%w
		row := cols[(p-p0)*inC*9 : (p-p0+1)*inC*9]
		if oy > 0 && oy < h-1 && ox > 0 && ox < w-1 {
			q := img*inC*plane + rem - w - 1 // top-left tap of channel 0
			for ic := 0; ic < inC; ic++ {
				r := row[ic*9 : ic*9+9 : ic*9+9]
				x0, x1, x2 := x[q:q+3:q+3], x[q+w:q+w+3:q+w+3], x[q+2*w:q+2*w+3:q+2*w+3]
				r[0], r[1], r[2] = x0[0], x0[1], x0[2]
				r[3], r[4], r[5] = x1[0], x1[1], x1[2]
				r[6], r[7], r[8] = x2[0], x2[1], x2[2]
				q += plane
			}
			continue
		}
		for ic := 0; ic < inC; ic++ {
			xp := x[(img*inC+ic)*plane : (img*inC+ic+1)*plane]
			for ky := 0; ky < 3; ky++ {
				iy := oy + ky - 1
				for kx := 0; kx < 3; kx++ {
					ix := ox + kx - 1
					var v S
					if iy >= 0 && iy < h && ix >= 0 && ix < w {
						v = xp[iy*w+ix]
					}
					row[ic*9+ky*3+kx] = v
				}
			}
		}
	}
}

// conv3x3WeightGradRange accumulates the gradient rows of out-channels
// [lo,hi).
func conv3x3WeightGradRange[S tensor.Scalar](c *Conv2D[S], x []S, dout []S, n, h, w, lo, hi int) {
	plane := h * w
	inC := c.InC
	gd := c.Weight.Grad.Data
	for oc := lo; oc < hi; oc++ {
		dbase := dout[oc*n*plane : (oc+1)*n*plane]
		grow := gd[oc*inC*9 : (oc+1)*inC*9]
		for ic := 0; ic < inC; ic++ {
			var s00, s01, s02, s10, s11, s12, s20, s21, s22 S
			for img := 0; img < n; img++ {
				xp := x[(img*inC+ic)*plane : (img*inC+ic+1)*plane]
				dp := dbase[img*plane : (img+1)*plane]
				for oy := 0; oy < h; oy++ {
					dr := dp[oy*w : (oy+1)*w]
					r1 := xp[oy*w : (oy+1)*w]
					var r0, r2 []S
					if oy > 0 {
						r0 = xp[(oy-1)*w : oy*w]
					}
					if oy < h-1 {
						r2 = xp[(oy+1)*w : (oy+2)*w]
					}
					if w < 3 {
						// Degenerate width: fully guarded taps.
						for ox := 0; ox < w; ox++ {
							g := dr[ox]
							if r0 != nil {
								if ox > 0 {
									s00 += g * r0[ox-1]
								}
								s01 += g * r0[ox]
								if ox < w-1 {
									s02 += g * r0[ox+1]
								}
							}
							if ox > 0 {
								s10 += g * r1[ox-1]
							}
							s11 += g * r1[ox]
							if ox < w-1 {
								s12 += g * r1[ox+1]
							}
							if r2 != nil {
								if ox > 0 {
									s20 += g * r2[ox-1]
								}
								s21 += g * r2[ox]
								if ox < w-1 {
									s22 += g * r2[ox+1]
								}
							}
						}
						continue
					}
					// Left edge (ox = 0): no ox-1 taps.
					g := dr[0]
					if r0 != nil {
						s01 += g * r0[0]
						s02 += g * r0[1]
					}
					s11 += g * r1[0]
					s12 += g * r1[1]
					if r2 != nil {
						s21 += g * r2[0]
						s22 += g * r2[1]
					}
					// Interior: branch-free nine-tap accumulation.
					switch {
					case r0 != nil && r2 != nil:
						for ox := 1; ox < w-1; ox++ {
							g := dr[ox]
							s00 += g * r0[ox-1]
							s01 += g * r0[ox]
							s02 += g * r0[ox+1]
							s10 += g * r1[ox-1]
							s11 += g * r1[ox]
							s12 += g * r1[ox+1]
							s20 += g * r2[ox-1]
							s21 += g * r2[ox]
							s22 += g * r2[ox+1]
						}
					case r2 != nil:
						for ox := 1; ox < w-1; ox++ {
							g := dr[ox]
							s10 += g * r1[ox-1]
							s11 += g * r1[ox]
							s12 += g * r1[ox+1]
							s20 += g * r2[ox-1]
							s21 += g * r2[ox]
							s22 += g * r2[ox+1]
						}
					case r0 != nil:
						for ox := 1; ox < w-1; ox++ {
							g := dr[ox]
							s00 += g * r0[ox-1]
							s01 += g * r0[ox]
							s02 += g * r0[ox+1]
							s10 += g * r1[ox-1]
							s11 += g * r1[ox]
							s12 += g * r1[ox+1]
						}
					default:
						for ox := 1; ox < w-1; ox++ {
							g := dr[ox]
							s10 += g * r1[ox-1]
							s11 += g * r1[ox]
							s12 += g * r1[ox+1]
						}
					}
					// Right edge (ox = w-1): no ox+1 taps.
					g = dr[w-1]
					if r0 != nil {
						s00 += g * r0[w-2]
						s01 += g * r0[w-1]
					}
					s10 += g * r1[w-2]
					s11 += g * r1[w-1]
					if r2 != nil {
						s20 += g * r2[w-2]
						s21 += g * r2[w-1]
					}
				}
			}
			gk := grow[ic*9 : ic*9+9]
			gk[0] += s00
			gk[1] += s01
			gk[2] += s02
			gk[3] += s10
			gk[4] += s11
			gk[5] += s12
			gk[6] += s20
			gk[7] += s21
			gk[8] += s22
		}
	}
}

// conv1x1WeightGrad accumulates dW for a 1×1 convolution: a dot product of
// each dout row with each input channel plane over all images.
func conv1x1WeightGrad[S tensor.Scalar](c *Conv2D[S], x []S, dout []S, n, h, w int) {
	p := pool.Shared()
	if p.Workers() == 1 {
		conv1x1WeightGradRange(c, x, dout, n, h, w, 0, c.OutC)
		return
	}
	p.MustMapRanges(c.OutC, 1, func(lo, hi int) {
		conv1x1WeightGradRange(c, x, dout, n, h, w, lo, hi)
	})
}

// conv1x1WeightGradRange accumulates dW rows of out-channels [lo,hi).
func conv1x1WeightGradRange[S tensor.Scalar](c *Conv2D[S], x []S, dout []S, n, h, w, lo, hi int) {
	plane := h * w
	inC := c.InC
	gd := c.Weight.Grad.Data
	for oc := lo; oc < hi; oc++ {
		dbase := dout[oc*n*plane : (oc+1)*n*plane]
		for ic := 0; ic < inC; ic++ {
			var s S
			for img := 0; img < n; img++ {
				xp := x[(img*inC+ic)*plane : (img*inC+ic+1)*plane]
				dp := dbase[img*plane : img*plane+len(xp)]
				for i, v := range xp {
					s += dp[i] * v
				}
			}
			gd[oc*inC+ic] += s
		}
	}
}

// conv1x1InputGrad computes dx for a 1×1 convolution directly in NCHW
// layout: dx[ic] = Σ_oc W[oc][ic]·dout[oc], out-channels ascending —
// exactly the dcols = Wᵀ×dout chain of the reference path.
func conv1x1InputGrad[S tensor.Scalar](c *Conv2D[S], dout []S, n, h, w int, dx []S) {
	p := pool.Shared()
	if p.Workers() == 1 {
		conv1x1InputGradRange(c, dout, n, h, w, dx, 0, n*c.InC)
		return
	}
	p.MustMapRanges(n*c.InC, 1, func(lo, hi int) {
		conv1x1InputGradRange(c, dout, n, h, w, dx, lo, hi)
	})
}

// conv1x1InputGradRange computes dx planes for (image, in-channel) pairs
// [lo,hi).
func conv1x1InputGradRange[S tensor.Scalar](c *Conv2D[S], dout []S, n, h, w int, dx []S, lo, hi int) {
	plane := h * w
	inC := c.InC
	wd := c.Weight.W.Data
	for t := lo; t < hi; t++ {
		img, ic := t/inC, t%inC
		dp := dx[(img*inC+ic)*plane : (img*inC+ic+1)*plane]
		for i := range dp {
			dp[i] = 0
		}
		for oc := 0; oc < c.OutC; oc++ {
			wv := wd[oc*inC+ic]
			sp := dout[oc*n*plane+img*plane : oc*n*plane+(img+1)*plane]
			for i, v := range sp {
				dp[i] += wv * v
			}
		}
	}
}
