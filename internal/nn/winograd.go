package nn

import (
	"seaice/internal/pool"
	"seaice/internal/tensor"
)

// Winograd convolution — the reduced-multiplication algorithms the
// float32 compute path runs its same-padded 3×3 convolutions through.
// F(4×4,3×3) computes each 4×4 output tile from a 6×6 input window with
// 36 multiplies per (ic, oc) pair — 2.25× fewer than the direct kernel —
// and F(2×2,3×3) covers planes divisible by two but not four. The
// transform-domain accumulations are independent (OutC×InC)×(InC×tiles)
// matrix products, which run on the active float backend's GEMM panel
// (tensor.GemmSerial). They are batched over the tiles of consecutive
// (image, tile-row) units — 64 tiles on a 32² plane, where one row holds
// 8 — because a SIMD panel vectorises across tiles. A batch runs on past
// the end of an image into the next one: the 4 and 1 tiles per image of
// 8² and 4² planes are too few for the 8-column AVX2 panel on their own,
// and a 4-image rank step's products are 64/64/16/4 tiles wide per level
// this way instead of 64/16/4/1. Batching does not reorder anything:
// every M element is still its own ascending-channel chain, so outputs
// are bit-identical to per-row products (and across backends, worker
// counts and batch sizes). What is left narrower than eight columns —
// the 4² level of a 4-image step, n = 4 — still runs the scalar panel; a
// 4-column SIMD tile for it waits in ROADMAP.
//
// The F(4×4) input transform vectorises the same way — across tiles, never
// within one. A batch's tiles are consecutive in every V stream, so in4
// takes them eight at a time: lane l of a group that starts at batch tile
// b is tile b+l, whichever image or tile row it came from — one rule for
// the 32², 16², 8² and 4² levels. in4 gathers the eight 6×6 windows into a
// lane-minor staging block, and a full group goes to the float backend's
// FloatOps.WinoIn4 when it has one (avx2: shuffle-free assembly, one YMM
// register = one stencil operand of eight tiles). The scalar stencil
// bt4Row, applied per lane by in4Lanes, is the definition: it is the only
// path on the engine backend, in float64 and off amd64, it runs every
// group narrower than eight tiles (the 4² level of a 4-image step, ragged
// batch ends), and a backend's kernel must reproduce its left-to-right
// rounding bit for bit (TestWinogradTransformConformance). The output
// transform, the filter transform and F(2×2) stay scalar: the first two
// are measured and waiting in ROADMAP (the benchmark's fixed-work window
// cannot hold them yet), the last never runs in training.
//
// F(2×2) stays. It only ever runs in float32 inference sessions on planes
// that are even but not ÷4 (training takes Winograd on ÷4 planes only),
// and sending those planes to the direct kernel instead — which would
// delete in2/out2/filterTransform — was prototyped, measured and
// rejected when the U-Net plan landed (issue 21):
// Session.PredictTiles slowed from 12.7–15.2 to 19.4–20.3 ms for 16 tiles
// of 16², from 20.3–23.4 to 29.9–32.9 ms at 24², and from 0.82–0.92 to
// 1.25–1.35 s for one 64² tile of PaperConfig.
//
// Precision policy: Winograd reassociates the arithmetic, so its outputs
// are NOT bit-identical to the direct kernels — they agree within the
// float32 tolerance bound (see tensor.PrecisionTolerance; the F(2×2)
// constants are exact in binary, the F(4×4) constants round at eps).
// That is why only the float32 path uses it: the float64 master path
// keeps the direct kernels' exact per-element accumulation order
// everywhere. The algorithm itself is deterministic and its batch
// parallelism splits disjoint images with disjoint scratch, so results
// are bit-identical at any worker count — the same worker-count
// guarantee as the direct engine, just scoped to the f32 algebra.
type Winograd[S tensor.Scalar] struct {
	// Static marks weights as frozen (inference sessions): filter
	// transforms are computed once per layer and cached. Training
	// instances leave it false and re-transform every call — the
	// transform is O(OutC·InC) against O(OutC·InC·H·W) conv work.
	Static bool

	u  map[*Conv2D[S]]*tensor.Tensor[S] // F(2×2,3×3) cache: (16, OutC, InC)
	u4 map[*Conv2D[S]]*tensor.Tensor[S] // F(4×4,3×3) cache: (36, OutC, InC)

	// Grow-only scratch: filter transform (non-static), and the serial
	// path's transform-domain V/M batch. The batch-parallel paths borrow
	// theirs per task from the package's scratch pool (kernels.go).
	ubuf, v, m *tensor.Tensor[S]

	// batchTiles overrides the tile budget of one batch of transform-
	// domain products (0: winoBatchTiles under winoBatchFloats). Tests
	// set 1 to get the unbatched per-row products back.
	batchTiles int
}

// A batch of transform-domain products covers whole tile rows, of one
// image or of several consecutive ones, holding up to winoBatchTiles tiles — eight AVX2 vectors, past
// which the panel gains nothing — and fewer, down to one vector's worth,
// on wide layers, keeping (InC+OutC)·tiles within winoBatchFloats: one
// task's V+M scratch then stays at 36·4096 floats (576 KiB, L2-sized)
// up to 512 channels in+out.
const (
	winoBatchTiles  = 64
	winoBatchFloats = 4096
)

// plan sets how many (image, tile-row) units share one batch of the job
// and returns the V and M scratch sizes such a batch needs. An F(4×4) V
// scratch ends in in4's staging block: handed to a backend kernel through
// a function value it would escape to the heap if it were a local array.
func (wg *Winograd[S]) plan(j *winoJob[S]) (vsz, msz int) {
	tiles := wg.batchTiles
	if tiles == 0 {
		tiles = min(winoBatchTiles, max(8, winoBatchFloats/(j.inC+j.outC)))
	}
	tw := j.w / j.tile
	j.rowsPerCall = min(max(1, tiles/tw), j.n*(j.h/j.tile))
	comps := (j.tile + 2) * (j.tile + 2)
	vsz, msz = comps*j.inC*j.rowsPerCall*tw, comps*j.outC*j.rowsPerCall*tw
	if j.tile == 4 {
		vsz += lanes * 36
	}
	return vsz, msz
}

// NewWinograd returns an empty transform engine; static marks the
// weights as frozen (see Static).
func NewWinograd[S tensor.Scalar](static bool) *Winograd[S] {
	return &Winograd[S]{
		Static: static,
		u:      make(map[*Conv2D[S]]*tensor.Tensor[S]),
		u4:     make(map[*Conv2D[S]]*tensor.Tensor[S]),
	}
}

// Usable reports whether the layer/shape combination can run a Winograd
// transform: a same-padded 3×3 stride-1 convolution on an even-sized
// plane.
func (wg *Winograd[S]) Usable(c *Conv2D[S], h, w int) bool {
	return c.KH == 3 && c.KW == 3 && c.Stride == 1 && c.Pad == 1 && h%2 == 0 && w%2 == 0 && h > 0 && w > 0
}

// usable4 reports whether the F(4×4,3×3) tiling covers the plane.
func usable4(h, w int) bool { return h%4 == 0 && w%4 == 0 }

// convSrc locates input planes: channels [0, ca) in xa, [ca, ca+cb) in
// xb (the virtualized skip concatenation). chanMajor selects the
// (C, N, plane) layout of the backward pass's dout instead of NCHW.
type convSrc[S tensor.Scalar] struct {
	xa, xb    []S
	ca, cb    int
	chanMajor bool
}

// plane returns channel ic of image img.
func (s convSrc[S]) plane(ic, img, n, plane int) []S {
	buf, c, k := s.xa, s.ca, ic
	if ic >= s.ca {
		buf, c, k = s.xb, s.cb, ic-s.ca
	}
	var base int
	if s.chanMajor {
		base = (k*n + img) * plane
	} else {
		base = (img*c + k) * plane
	}
	return buf[base : base+plane]
}

// filterTransform computes U = G·g·Gᵀ for F(2×2,3×3), laid out as 16
// contiguous (OutC, InC) GEMM A-operands.
func (wg *Winograd[S]) filterTransform(c *Conv2D[S]) *tensor.Tensor[S] {
	if wg.Static {
		if u, ok := wg.u[c]; ok {
			return u
		}
	}
	outC, inC := c.OutC, c.InC
	var u *tensor.Tensor[S]
	if wg.Static {
		u = tensor.New[S](16, outC, inC)
		wg.u[c] = u
	} else {
		u = tensor.Grow(&wg.ubuf, 16, outC, inC)
	}
	wd := c.Weight.W.Data
	var gg [12]S // G·g, 4×3
	for oc := 0; oc < outC; oc++ {
		for ic := 0; ic < inC; ic++ {
			g := wd[oc*inC*9+ic*9 : oc*inC*9+ic*9+9]
			for col := 0; col < 3; col++ {
				g0, g1, g2 := g[col], g[3+col], g[6+col]
				gg[col] = g0
				gg[3+col] = (g0 + g1 + g2) / 2
				gg[6+col] = (g0 - g1 + g2) / 2
				gg[9+col] = g2
			}
			for row := 0; row < 4; row++ {
				t0, t1, t2 := gg[row*3], gg[row*3+1], gg[row*3+2]
				base := (row * 4 * outC * inC)
				u.Data[base+oc*inC+ic] = t0
				u.Data[base+outC*inC+oc*inC+ic] = (t0 + t1 + t2) / 2
				u.Data[base+2*outC*inC+oc*inC+ic] = (t0 - t1 + t2) / 2
				u.Data[base+3*outC*inC+oc*inC+ic] = t2
			}
		}
	}
	return u
}

// g4Row applies the 1-D F(4×4,3×3) G stencil to one 3-tap row.
func g4Row[S tensor.Scalar](a, b, c S) (r0, r1, r2, r3, r4, r5 S) {
	r0 = a / 4
	r1 = -(a + b + c) / 6
	r2 = (-a + b - c) / 6
	r3 = a/24 + b/12 + c/6
	r4 = a/24 - b/12 + c/6
	r5 = c
	return
}

// filterTransform4Into computes the F(4×4,3×3) filter transform
// U = G·g·Gᵀ into dst (36, outRows, inRows). tap selects the 3×3 taps:
// the forward conv reads W[oc][ic] directly; the input-gradient conv
// reads the transposed, 180°-rotated filter.
func filterTransform4Into[S tensor.Scalar](dst []S, outRows, inRows int, tap func(o, i, ky, kx int) S) {
	var t [18]S // G·g, 6×3
	for o := 0; o < outRows; o++ {
		for i := 0; i < inRows; i++ {
			for col := 0; col < 3; col++ {
				r0, r1, r2, r3, r4, r5 := g4Row(tap(o, i, 0, col), tap(o, i, 1, col), tap(o, i, 2, col))
				t[col], t[3+col], t[6+col] = r0, r1, r2
				t[9+col], t[12+col], t[15+col] = r3, r4, r5
			}
			for row := 0; row < 6; row++ {
				u0, u1, u2, u3, u4, u5 := g4Row(t[row*3], t[row*3+1], t[row*3+2])
				base := row * 6 * outRows * inRows
				step := outRows * inRows
				dst[base+o*inRows+i] = u0
				dst[base+step+o*inRows+i] = u1
				dst[base+2*step+o*inRows+i] = u2
				dst[base+3*step+o*inRows+i] = u3
				dst[base+4*step+o*inRows+i] = u4
				dst[base+5*step+o*inRows+i] = u5
			}
		}
	}
}

// filterTransform4 returns the forward F(4×4,3×3) filter transform,
// cached when Static.
func (wg *Winograd[S]) filterTransform4(c *Conv2D[S]) []S {
	if wg.Static {
		if u, ok := wg.u4[c]; ok {
			return u.Data
		}
	}
	outC, inC := c.OutC, c.InC
	wd := c.Weight.W.Data
	var dst []S
	if wg.Static {
		u := tensor.New[S](36, outC, inC)
		wg.u4[c] = u
		dst = u.Data
	} else {
		dst = tensor.Grow(&wg.ubuf, 36, outC, inC).Data
	}
	filterTransform4Into(dst, outC, inC, func(o, i, ky, kx int) S {
		return wd[o*inC*9+i*9+ky*3+kx]
	})
	return dst
}

// gradFilterTransform4 returns the transform of the transposed,
// 180°-rotated filter — the kernel of dx = conv(dy, rot180(W)ᵀ). Always
// recomputed: it is only used on the training path, where weights move
// every step.
func (wg *Winograd[S]) gradFilterTransform4(c *Conv2D[S]) []S {
	outC, inC := c.OutC, c.InC
	wd := c.Weight.W.Data
	dst := tensor.Grow(&wg.ubuf, 36, inC, outC).Data
	filterTransform4Into(dst, inC, outC, func(o, i, ky, kx int) S {
		return wd[i*inC*9+o*9+(2-ky)*3+(2-kx)]
	})
	return dst
}

// winoJob is one Winograd convolution call: the operands every
// (image, tile-row) unit of it shares.
type winoJob[S tensor.Scalar] struct {
	tile        int // output tile edge: 4 for F(4×4,3×3), 2 for F(2×2,3×3)
	u, bias     []S // transformed filter (tile+2)² × (outC, inC); bias may be nil
	src         convSrc[S]
	n, h, w     int
	inC, outC   int
	dst         []S
	relu        bool
	rowsPerCall int // (image, tile-row) units per batch of transform-domain products
}

// Conv computes the same-padded 3×3 convolution with fused bias (and
// optionally ReLU) through the Winograd transform, serially — inference
// sessions own their worker. Planes divisible by four run F(4×4,3×3);
// the rest run F(2×2,3×3).
func (wg *Winograd[S]) Conv(c *Conv2D[S], xa []S, ca int, xb []S, cb int, n, h, w int, dst []S, relu bool) {
	j := winoJob[S]{
		tile: 2, bias: c.Bias.W.Data, src: convSrc[S]{xa: xa, xb: xb, ca: ca, cb: cb},
		n: n, h: h, w: w, inC: ca + cb, outC: c.OutC, dst: dst, relu: relu,
	}
	if usable4(h, w) {
		j.tile, j.u = 4, wg.filterTransform4(c)
	} else {
		j.u = wg.filterTransform(c).Data
	}
	vsz, msz := wg.plan(&j)
	j.run(0, n*(h/j.tile), tensor.Grow(&wg.v, vsz).Data, tensor.Grow(&wg.m, msz).Data)
}

// ConvBatch is Conv parallelized over (image, tile-row) tasks on the
// given pool — the training forward. Tasks write disjoint output rows
// and draw scratch from a recycling pool, so results are bit-identical
// at any worker count and a single large image still fans out. The
// caller must have checked Usable and plane divisibility by four.
func (wg *Winograd[S]) ConvBatch(p *pool.Pool, c *Conv2D[S], x []S, n, h, w int, dst []S, relu bool) {
	wg.runTasks(p, &winoJob[S]{
		tile: 4, u: wg.filterTransform4(c), bias: c.Bias.W.Data, src: convSrc[S]{xa: x, ca: c.InC},
		n: n, h: h, w: w, inC: c.InC, outC: c.OutC, dst: dst, relu: relu,
	})
}

// InputGradBatch computes dx = conv(dy, rot180(W)ᵀ) — the input gradient
// of a same-padded 3×3 convolution — through F(4×4,3×3), parallel over
// (image, tile-row) tasks. dout is the backward pass's channel-major
// (OutC, N, plane) gradient; dx is written NCHW. The caller must have
// checked plane divisibility by four.
func (wg *Winograd[S]) InputGradBatch(p *pool.Pool, c *Conv2D[S], dout []S, n, h, w int, dx []S) {
	// in/out roles swap for the gradient conv.
	wg.runTasks(p, &winoJob[S]{
		tile: 4, u: wg.gradFilterTransform4(c), src: convSrc[S]{xa: dout, ca: c.OutC, chanMajor: true},
		n: n, h: h, w: w, inC: c.OutC, outC: c.InC, dst: dx,
	})
}

// WinogradTransforms4 returns functions that run only the F(4×4,3×3)
// input transform and only the output transform (bias and ReLU included)
// of one step of n images of c channels on h×w planes, batch by batch as
// ConvBatch would, under the active float backend. It is the timing seam
// for BenchmarkWinogradTransforms: the transforms are internal to a
// convolution and cannot be timed apart from its products otherwise.
func WinogradTransforms4[S tensor.Scalar](n, c, h, w int) (in, out func()) {
	x := make([]S, n*c*h*w)
	for i := range x {
		x[i] = S(i%13) - 6
	}
	j := &winoJob[S]{
		tile: 4, bias: make([]S, c), src: convSrc[S]{xa: x, ca: c},
		n: n, h: h, w: w, inC: c, outC: c, dst: make([]S, len(x)), relu: true,
	}
	vsz, msz := NewWinograd[S](false).plan(j)
	v, m := make([]S, vsz), make([]S, msz)
	copy(m, x)
	th, tw := h/4, w/4
	batches := func(transform func(lo, end, cn int)) func() {
		return func() {
			for lo, units := 0, n*th; lo < units; lo += j.rowsPerCall {
				end := min(lo+j.rowsPerCall, units)
				transform(lo, end, (end-lo)*tw)
			}
		}
	}
	in = batches(func(lo, _, cn int) { j.in4(lo, cn, v) })
	out = batches(func(lo, end, cn int) {
		for t := lo; t < end; t++ {
			j.out4(t/th, t%th, m, cn, (t-lo)*tw)
		}
	})
	return in, out
}

// runTasks fans the F(4×4,3×3) job's (image, tile-row) units out on the
// pool. Each range call borrows one scratch pair; task outputs are
// disjoint dst rows, so any partitioning yields bit-identical results.
func (wg *Winograd[S]) runTasks(p *pool.Pool, j *winoJob[S]) {
	vsz, msz := wg.plan(j)
	run := func(lo, hi int) {
		sc := getScratch[S](vsz, msz)
		j.run(lo, hi, sc.a, sc.b)
		scratchPool.Put(sc)
	}
	units := j.n * (j.h / 4)
	if p.Workers() == 1 {
		run(0, units)
		return
	}
	p.MustMapRanges(units, 1, run)
}

// run computes (image, tile-row) units [lo,hi), up to rowsPerCall per
// batch, across image boundaries: the input transform of every tile in the batch, one GEMM per
// transform component over all of them (V and M rows are the batch's
// tiles, unit after unit), then the output transforms. The scratch of a
// batch is L2-sized (see winoBatchFloats), so the component streams and
// the small GEMMs run over cache-resident memory instead of thrashing
// plane-sized buffers through DRAM.
func (j *winoJob[S]) run(lo, hi int, vbuf, mbuf []S) {
	th, tw := j.h/j.tile, j.w/j.tile
	comps := (j.tile + 2) * (j.tile + 2)
	for lo < hi {
		end := min(lo+j.rowsPerCall, hi)
		cn := (end - lo) * tw
		if j.tile == 4 {
			j.in4(lo, cn, vbuf)
		} else {
			for t := lo; t < end; t++ {
				j.in2(t/th, t%th, vbuf, cn, (t-lo)*tw)
			}
		}
		for idx := 0; idx < comps; idx++ {
			tensor.GemmSerial(
				mbuf[idx*j.outC*cn:(idx+1)*j.outC*cn],
				j.u[idx*j.outC*j.inC:(idx+1)*j.outC*j.inC],
				vbuf[idx*j.inC*cn:(idx+1)*j.inC*cn],
				j.outC, j.inC, cn)
		}
		for t := lo; t < end; t++ {
			if j.tile == 4 {
				j.out4(t/th, t%th, mbuf, cn, (t-lo)*tw)
			} else {
				j.out2(t/th, t%th, mbuf, cn, (t-lo)*tw)
			}
		}
		lo = end
	}
}

// bt4Row applies the 1-D F(4×4,3×3) Bᵀ stencil to six samples.
func bt4Row[S tensor.Scalar](d0, d1, d2, d3, d4, d5 S) (t0, t1, t2, t3, t4, t5 S) {
	t0 = 4*d0 - 5*d2 + d4
	t1 = -4*d1 - 4*d2 + d3 + d4
	t2 = 4*d1 - 4*d2 - d3 + d4
	t3 = -2*d1 - d2 + 2*d3 + d4
	t4 = 2*d1 - d2 - 2*d3 + d4
	t5 = 4*d1 - 5*d3 + d5
	return
}

// at4Row applies the 1-D F(4×4,3×3) Aᵀ stencil to six samples.
func at4Row[S tensor.Scalar](m0, m1, m2, m3, m4, m5 S) (y0, y1, y2, y3 S) {
	y0 = m0 + m1 + m2 + m3 + m4
	y1 = m1 - m2 + 2*m3 - 2*m4
	y2 = m1 + m2 + 4*m3 + 4*m4
	y3 = m1 - m2 + 8*m3 - 8*m4 + m5
	return
}

// lanes is how many consecutive tiles of a batch the F(4×4,3×3) input
// transform stages together: lane l of a group starting at batch tile b is
// tile b+l, whichever image and tile row that is.
const lanes = tensor.WinoLanes

// tileCursor walks a batch's tiles in V order: along a tile row, down the
// tile rows of an image, on into the next image.
type tileCursor struct{ img, ty, tx int }

func (c *tileCursor) next(th, tw int) {
	if c.tx++; c.tx == tw {
		c.tx = 0
		if c.ty++; c.ty == th {
			c.ty = 0
			c.img++
		}
	}
}

// in4 is the F(4×4,3×3) input transform of the cn tiles of the batch that
// starts at unit lo: V[idx][ic][b] = (Bᵀ·d·B)[idx] of batch tile b's 6×6
// input window. Per channel, groups of up to eight tiles are gathered
// into the lane-minor staging block at the end of vbuf (see plan); a full
// group goes to the float backend's WinoIn4 when it has one, anything else
// through in4Lanes.
func (j *winoJob[S]) in4(lo, cn int, vbuf []S) {
	h, w := j.h, j.w
	th, tw := h/4, w/4
	kern := tensor.Float[S]().WinoIn4
	stride := j.inC * cn
	d := (*[lanes * 36]S)(vbuf[len(vbuf)-lanes*36:])
	for ic := 0; ic < j.inC; ic++ {
		cur := tileCursor{img: lo / th, ty: lo % th}
		for b := 0; b < cn; b += lanes {
			nl := min(lanes, cn-b)
			for l := 0; l < nl; l++ {
				window4(j.src.plane(ic, cur.img, j.n, h*w), h, w, 4*cur.ty-1, 4*cur.tx-1, d[l:])
				cur.next(th, tw)
			}
			if v := vbuf[ic*cn+b:]; nl == lanes && kern != nil {
				kern(v, stride, d)
			} else {
				in4Lanes(v, stride, d, nl)
			}
		}
	}
}

// window4 gathers the 6×6 window whose corner is (y0, x0) of plane into
// one lane of a staging block — element k at d[lanes·k] — reading zeros
// beyond the plane. Interior windows take a branch-free fast path on six
// row slices.
func window4[S tensor.Scalar](plane []S, h, w, y0, x0 int, d []S) {
	if y0 >= 0 && y0+6 <= h && x0 >= 0 && x0+6 <= w {
		p := y0*w + x0
		for r := 0; r < 6; r++ {
			row := plane[p+r*w : p+r*w+6 : p+r*w+6]
			o := d[6*lanes*r : 6*lanes*r+5*lanes+1]
			o[0], o[lanes], o[2*lanes] = row[0], row[1], row[2]
			o[3*lanes], o[4*lanes], o[5*lanes] = row[3], row[4], row[5]
		}
		return
	}
	for r := 0; r < 6; r++ {
		o := d[6*lanes*r : 6*lanes*r+5*lanes+1]
		iy := y0 + r
		if iy < 0 || iy >= h {
			o[0], o[lanes], o[2*lanes], o[3*lanes], o[4*lanes], o[5*lanes] = 0, 0, 0, 0, 0, 0
			continue
		}
		row := plane[iy*w : iy*w+w]
		for cc := 0; cc < 6; cc++ {
			var x S
			if ix := x0 + cc; ix >= 0 && ix < w {
				x = row[ix]
			}
			o[lanes*cc] = x
		}
	}
}

// in4Lanes is the scalar definition of tensor.FloatOps.WinoIn4, for the
// first nl lanes of d: Bᵀ·d (column ops), then ·B (row ops), component
// idx of lane l to v[idx·stride+l].
func in4Lanes[S tensor.Scalar](v []S, stride int, d *[lanes * 36]S, nl int) {
	for l := 0; l < nl; l++ {
		var t [36]S
		for cc := 0; cc < 6; cc++ {
			c := d[lanes*cc+l:]
			t0, t1, t2, t3, t4, t5 := bt4Row(c[0], c[6*lanes], c[12*lanes], c[18*lanes], c[24*lanes], c[30*lanes])
			t[cc], t[6+cc], t[12+cc] = t0, t1, t2
			t[18+cc], t[24+cc], t[30+cc] = t3, t4, t5
		}
		for r := 0; r < 6; r++ {
			t0, t1, t2, t3, t4, t5 := bt4Row(t[r*6], t[r*6+1], t[r*6+2], t[r*6+3], t[r*6+4], t[r*6+5])
			o := v[6*r*stride+l : (6*r+5)*stride+l+1]
			o[0], o[stride], o[2*stride] = t0, t1, t2
			o[3*stride], o[4*stride], o[5*stride] = t3, t4, t5
		}
	}
}

// out4 is the F(4×4,3×3) output transform of tile row ty of image img:
// Y = Aᵀ·M·A (4×4 per tile) + bias (+ReLU), from an M whose rows hold cn
// tiles.
func (j *winoJob[S]) out4(img, ty int, mbuf []S, cn, off int) {
	w, outC := j.w, j.outC
	tw := w / 4
	plane := j.h * w
	var mr [36][]S
	for oc := 0; oc < outC; oc++ {
		var b S
		if j.bias != nil {
			b = j.bias[oc]
		}
		dp := j.dst[(img*outC+oc)*plane : (img*outC+oc+1)*plane]
		for idx := 0; idx < 36; idx++ {
			mr[idx] = mbuf[(idx*outC+oc)*cn+off : (idx*outC+oc)*cn+off+tw]
		}
		var outRow [4][]S
		for r := 0; r < 4; r++ {
			outRow[r] = dp[(4*ty+r)*w : (4*ty+r)*w+w]
		}
		for tx := 0; tx < tw; tx++ {
			var e [24]S // Aᵀ·M, 4×6
			for cc := 0; cc < 6; cc++ {
				y0, y1, y2, y3 := at4Row(mr[cc][tx], mr[6+cc][tx], mr[12+cc][tx], mr[18+cc][tx], mr[24+cc][tx], mr[30+cc][tx])
				e[cc], e[6+cc], e[12+cc], e[18+cc] = y0, y1, y2, y3
			}
			for r := 0; r < 4; r++ {
				y0, y1, y2, y3 := at4Row(e[r*6], e[r*6+1], e[r*6+2], e[r*6+3], e[r*6+4], e[r*6+5])
				y0, y1, y2, y3 = y0+b, y1+b, y2+b, y3+b
				if j.relu {
					if y0 < 0 {
						y0 = 0
					}
					if y1 < 0 {
						y1 = 0
					}
					if y2 < 0 {
						y2 = 0
					}
					if y3 < 0 {
						y3 = 0
					}
				}
				o := outRow[r]
				o[4*tx], o[4*tx+1], o[4*tx+2], o[4*tx+3] = y0, y1, y2, y3
			}
		}
	}
}

// in2 is the F(2×2,3×3) input transform of tile row ty of image img,
// covering even planes not divisible by four (only the inference session
// reaches it).
func (j *winoJob[S]) in2(img, ty int, vbuf []S, cn, off int) {
	h, w, inC := j.h, j.w, j.inC
	th, tw := h/2, w/2
	var vr [16][]S
	y0 := 2*ty - 1
	interiorY := ty >= 1 && ty <= th-2
	for ic := 0; ic < inC; ic++ {
		xsrc := j.src.plane(ic, img, j.n, h*w)
		for idx := 0; idx < 16; idx++ {
			vr[idx] = vbuf[(idx*inC+ic)*cn+off : (idx*inC+ic)*cn+off+tw]
		}
		for tx := 0; tx < tw; tx++ {
			x0 := 2*tx - 1
			var d00, d01, d02, d03, d10, d11, d12, d13 S
			var d20, d21, d22, d23, d30, d31, d32, d33 S
			if interiorY && tx >= 1 && tx <= tw-2 {
				p := y0*w + x0
				r0 := xsrc[p : p+4 : p+4]
				r1 := xsrc[p+w : p+w+4 : p+w+4]
				r2 := xsrc[p+2*w : p+2*w+4 : p+2*w+4]
				r3 := xsrc[p+3*w : p+3*w+4 : p+3*w+4]
				d00, d01, d02, d03 = r0[0], r0[1], r0[2], r0[3]
				d10, d11, d12, d13 = r1[0], r1[1], r1[2], r1[3]
				d20, d21, d22, d23 = r2[0], r2[1], r2[2], r2[3]
				d30, d31, d32, d33 = r3[0], r3[1], r3[2], r3[3]
			} else {
				var d [16]S
				for r := 0; r < 4; r++ {
					iy := y0 + r
					if iy < 0 || iy >= h {
						continue
					}
					row := xsrc[iy*w : iy*w+w]
					for cc := 0; cc < 4; cc++ {
						ix := x0 + cc
						if ix >= 0 && ix < w {
							d[r*4+cc] = row[ix]
						}
					}
				}
				d00, d01, d02, d03 = d[0], d[1], d[2], d[3]
				d10, d11, d12, d13 = d[4], d[5], d[6], d[7]
				d20, d21, d22, d23 = d[8], d[9], d[10], d[11]
				d30, d31, d32, d33 = d[12], d[13], d[14], d[15]
			}
			// Bᵀ·d (column ops), then ·B (row ops).
			t00, t01, t02, t03 := d00-d20, d01-d21, d02-d22, d03-d23
			t10, t11, t12, t13 := d10+d20, d11+d21, d12+d22, d13+d23
			t20, t21, t22, t23 := d20-d10, d21-d11, d22-d12, d23-d13
			t30, t31, t32, t33 := d10-d30, d11-d31, d12-d32, d13-d33
			vr[0][tx], vr[1][tx], vr[2][tx], vr[3][tx] = t00-t02, t01+t02, t02-t01, t01-t03
			vr[4][tx], vr[5][tx], vr[6][tx], vr[7][tx] = t10-t12, t11+t12, t12-t11, t11-t13
			vr[8][tx], vr[9][tx], vr[10][tx], vr[11][tx] = t20-t22, t21+t22, t22-t21, t21-t23
			vr[12][tx], vr[13][tx], vr[14][tx], vr[15][tx] = t30-t32, t31+t32, t32-t31, t31-t33
		}
	}
}

// out2 is the F(2×2,3×3) output transform of tile row ty of image img:
// Y = Aᵀ·M·A per tile, plus bias (+ReLU).
func (j *winoJob[S]) out2(img, ty int, mbuf []S, cn, off int) {
	w, outC := j.w, j.outC
	tw := w / 2
	plane := j.h * w
	var mr [16][]S
	for oc := 0; oc < outC; oc++ {
		b := j.bias[oc]
		dp := j.dst[(img*outC+oc)*plane : (img*outC+oc+1)*plane]
		out0 := dp[(2*ty)*w : (2*ty)*w+w]
		out1 := dp[(2*ty+1)*w : (2*ty+1)*w+w]
		for idx := 0; idx < 16; idx++ {
			mr[idx] = mbuf[(idx*outC+oc)*cn+off : (idx*outC+oc)*cn+off+tw]
		}
		for tx := 0; tx < tw; tx++ {
			m00, m01, m02, m03 := mr[0][tx], mr[1][tx], mr[2][tx], mr[3][tx]
			m10, m11, m12, m13 := mr[4][tx], mr[5][tx], mr[6][tx], mr[7][tx]
			m20, m21, m22, m23 := mr[8][tx], mr[9][tx], mr[10][tx], mr[11][tx]
			m30, m31, m32, m33 := mr[12][tx], mr[13][tx], mr[14][tx], mr[15][tx]
			// Aᵀ·M (column ops), then ·A (row ops).
			r00, r01, r02, r03 := m00+m10+m20, m01+m11+m21, m02+m12+m22, m03+m13+m23
			r10, r11, r12, r13 := m10-m20-m30, m11-m21-m31, m12-m22-m32, m13-m23-m33
			y00 := r00 + r01 + r02 + b
			y01 := r01 - r02 - r03 + b
			y10 := r10 + r11 + r12 + b
			y11 := r11 - r12 - r13 + b
			if j.relu {
				if y00 < 0 {
					y00 = 0
				}
				if y01 < 0 {
					y01 = 0
				}
				if y10 < 0 {
					y10 = 0
				}
				if y11 < 0 {
					y11 = 0
				}
			}
			out0[2*tx], out0[2*tx+1] = y00, y01
			out1[2*tx], out1[2*tx+1] = y10, y11
		}
	}
}
