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
// counts and batch sizes). What is left narrower than eight columns — the
// 8² and 4² levels of a batch-of-one inference (4 and 1 tiles), the 4²
// level of a 4-image step — runs transposed, Mᵀ = Vᵀ·Uᵀ, so the panel
// vectorises across output channels instead (see panelTiles); the chains
// are the same, and so are the bits.
//
// The three F(4×4) transforms vectorise the same way — across tiles or
// filters, never within one. A batch's tiles are consecutive in every V
// and M stream, so in4 and out4 take them eight at a time: lane l of a
// group that starts at batch tile b is tile b+l, whichever image or tile
// row it came from — one rule for the 32², 16², 8² and 4² levels. in4
// gathers the eight 6×6 windows into a lane-minor staging block; out4
// reads the eight tiles' M components straight from the streams and
// scatters the lane-minor 4×4 results the kernel leaves in the same block;
// filter gathers the nine taps of eight consecutive (row, column) pairs of
// its operand, which are consecutive in every U stream. A full group goes
// to the float backend's FloatOps.WinoIn4, WinoOut4 or WinoFilter4 when it
// has one (avx2: shuffle-free assembly, one YMM register = one stencil
// operand of eight lanes). The scalar stencils bt4Row, at4Row and g4Row,
// applied per lane by in4Lanes, out4Lanes and filter4Lanes, are the
// definitions: they are the only path on the engine backend, in float64
// and off amd64, they run every group narrower than eight lanes (the 8²
// and 4² levels of a batch-of-one inference and the 4² level of a 4-image
// step — the batches whose products run transposed — ragged batch ends,
// and the last pairs of a filter operand whose size is not a multiple of
// eight), and a backend's kernel must reproduce their left-to-right
// rounding bit for bit (TestWinogradTransformConformance). F(2×2)'s
// transforms stay scalar: they never run in training.
//
// F(2×2) stays. It only ever runs in float32 inference sessions on planes
// that are even but not ÷4 (training takes Winograd on ÷4 planes only),
// and sending those planes to the direct kernel instead — which would
// delete in2/out2/filter2Lanes — was prototyped, measured and
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

	filters map[filterKey[S]][]S // the Static cache

	// taps stages the nine taps of up to eight filters lane-minor for the
	// filter transform (see filter): as a local array it would escape to
	// the heap through the backend's function value.
	taps [lanes * 9]S

	// Grow-only scratch: filter transform and its transpose
	// (non-static), and the serial path's transform-domain V/M batch.
	// The batch-parallel paths borrow theirs per task from the package's
	// scratch pool (kernels.go).
	ubuf, utbuf, v, m *tensor.Tensor[S]

	// batchTiles overrides the tile budget of one batch of transform-
	// domain products (0: winoBatchTiles under winoBatchFloats). Tests
	// set 1 to get the unbatched per-row products back, and noTranspose
	// to keep batches narrower than the panel untransposed.
	batchTiles  int
	noTranspose bool
}

// filterKey names one Static cache entry: conv c's forward filter
// transform for output tiles of edge tile, laid out straight —
// (tile+2)² × (OutC, InC) GEMM A-operands — or transposed,
// (tile+2)² × (InC, OutC) B-operands. A session caches only the layouts
// its calls multiply by: while every batch of a layer is narrower than
// the panel (the 8² and 4² levels of one 32² tile), it holds no straight
// transform of that layer.
type filterKey[S tensor.Scalar] struct {
	c          *Conv2D[S]
	tile       int
	transposed bool
}

// A batch of transform-domain products covers whole tile rows, of one
// image or of several consecutive ones, holding up to winoBatchTiles tiles — eight AVX2 vectors, past
// which the panel gains nothing — and fewer, down to one vector's worth,
// on wide layers, keeping (InC+OutC)·tiles within winoBatchFloats: one
// task's V+M scratch then stays at 36·4096 floats (576 KiB, L2-sized)
// up to 512 channels in+out.
//
// A batch narrower than panelTiles — the 8² and 4² levels of a
// batch-of-one inference, the 4² level of a 4-image step, ragged batch
// ends on planes under 32 wide — would leave a SIMD panel, which
// vectorises across a product's columns, without one full vector. It
// computes Mᵀ = Vᵀ·Uᵀ instead: the columns are then the output channels,
// and every Mᵀ element is the M element's ascending-input-channel chain
// of the same products, so the result is bit-identical. On a SIMD panel
// the rows are padded with zeros to a multiple of panelRows, the height of
// its vectorised row block, so no row of the product falls to its scalar
// row tail (the 4² level's single tile would); the padded rows' results
// are discarded. The scalar panel gains nothing from padding and runs the
// real rows only.
const (
	winoBatchTiles  = 64
	winoBatchFloats = 4096
	panelTiles      = 8
	panelRows       = 4
)

// plan sets how many (image, tile-row) units share one batch of the job
// and which product layouts its batches use, given the ranges p splits
// the units into (pool.Split with grain 1: one range on a serial pool),
// and returns the V and M scratch sizes such a batch needs. An F(4×4) V
// scratch ends in in4's staging block: handed to a backend kernel
// through a function value it would escape to the heap if it were a
// local array. out4 reuses the block once the products have read V. On
// planes narrower than panelTiles tiles, M ends in the Vᵀ/Mᵀ staging of
// one transposed product.
func (wg *Winograd[S]) plan(j *winoJob[S], p *pool.Pool) (vsz, msz int) {
	tiles := wg.batchTiles
	if tiles == 0 {
		tiles = min(winoBatchTiles, max(8, winoBatchFloats/(j.inC+j.outC)))
	}
	tw := j.w / j.tile
	units := j.n * (j.h / j.tile)
	rows := min(max(1, tiles/tw), units)
	j.rowsPerCall = rows
	// A range of l units runs batches of rows units, then one of l%rows.
	var narrow, wide bool
	p.Split(units, 1, func(lo, hi int) {
		for _, b := range [2]int{min(hi-lo, rows), (hi - lo) % rows} {
			narrow = narrow || b > 0 && b*tw < panelTiles
			wide = wide || b*tw >= panelTiles
		}
	})
	j.transposed = narrow && !wg.noTranspose
	j.straight = wide || !j.transposed
	comps := (j.tile + 2) * (j.tile + 2)
	vsz, msz = comps*j.inC*rows*tw, comps*j.outC*rows*tw
	if j.tile == 4 {
		vsz += lanes * 36
	}
	if tw < panelTiles {
		msz += narrowRows(min(panelTiles-1, rows*tw)) * (j.inC + j.outC)
	}
	return vsz, msz
}

// narrowRows is the padded row count of a transposed product of cn
// tiles: cn rounded up to whole SIMD panel row blocks.
func narrowRows(cn int) int { return (cn + panelRows - 1) / panelRows * panelRows }

// NewWinograd returns an empty transform engine; static marks the
// weights as frozen (see Static).
func NewWinograd[S tensor.Scalar](static bool) *Winograd[S] {
	return &Winograd[S]{Static: static, filters: make(map[filterKey[S]][]S)}
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

// setFilters sets the filter transforms of conv c that the planned job
// multiplies by — u if some batch runs straight, ut if some batch runs
// transposed — for its forward, or with grad for its input gradient,
// whose filter moves every step and is never cached. Both are complete
// before any batch runs.
func (wg *Winograd[S]) setFilters(j *winoJob[S], c *Conv2D[S], grad bool) {
	j.u, j.ut = nil, nil
	if j.straight {
		j.u = wg.filter(j, c, grad, false)
	}
	if j.transposed {
		j.ut = wg.filter(j, c, grad, true)
	}
}

// filter returns one filter transform of the job: (tile+2)² matrices of
// (outC, inC) for the job's channels — its in- and output roles swap for
// the input gradient — or, transposed, of (inC, outC). A Static engine
// caches the forward's; otherwise it is recomputed into scratch. Pair
// p = r·cols + col of the operand is at offset p of every component
// matrix, so consecutive pairs are consecutive lanes: filter gathers the
// taps of eight at a time into wg.taps and hands a full F(4×4) group to
// the float backend's WinoFilter4 when it has one, anything else to
// filter4Lanes or filter2Lanes. The transposed layout is gathered pair by
// pair as the straight one, so the two hold the same values bit for bit.
func (wg *Winograd[S]) filter(j *winoJob[S], c *Conv2D[S], grad, transposed bool) []S {
	key := filterKey[S]{c, j.tile, transposed}
	cache := wg.Static && !grad
	if cache {
		if f, ok := wg.filters[key]; ok {
			return f
		}
	}
	rows, cols := j.outC, j.inC
	if transposed {
		rows, cols = cols, rows
	}
	comps := (j.tile + 2) * (j.tile + 2)
	var dst []S
	switch {
	case cache:
		dst = make([]S, comps*rows*cols)
		wg.filters[key] = dst
	case transposed:
		dst = tensor.Grow(&wg.utbuf, comps, rows, cols).Data
	default:
		dst = tensor.Grow(&wg.ubuf, comps, rows, cols).Data
	}
	// Row r, column col of the operand transforms the 3×3 filter
	// W[oc][ic] with (oc, ic) = (r, col) for the forward, (col, r)
	// transposed; the input gradient's conv swaps the roles once more and
	// reads the filter rotated by 180°, where tap k is the filter's tap 8−k.
	wd, inC := c.Weight.W.Data, c.InC
	rowsOut := grad == transposed
	var kern func(u []S, stride int, g *[lanes * 9]S)
	if j.tile == 4 {
		kern = tensor.Float[S]().WinoFilter4
	}
	g, pairs := &wg.taps, rows*cols
	r, col := 0, 0
	for p := 0; p < pairs; p += lanes {
		nl := min(lanes, pairs-p)
		for l := 0; l < nl; l++ {
			oc, ic := r, col
			if !rowsOut {
				oc, ic = col, r
			}
			for k, x := range wd[(oc*inC+ic)*9 : (oc*inC+ic)*9+9] {
				if grad {
					k = 8 - k
				}
				g[lanes*k+l] = x
			}
			if col++; col == cols {
				col = 0
				r++
			}
		}
		switch u := dst[p:]; {
		case j.tile == 2:
			filter2Lanes(u, pairs, g, nl)
		case nl == lanes && kern != nil:
			kern(u, pairs, g)
		default:
			filter4Lanes(u, pairs, g, nl)
		}
	}
	return dst
}

// filter2Lanes applies the F(2×2,3×3) filter transform U = G·g·Gᵀ to the
// first nl lanes of g (taps lane-minor, as for filter4Lanes): component
// idx < 16 of lane l to u[idx·stride+l].
func filter2Lanes[S tensor.Scalar](u []S, stride int, g *[lanes * 9]S, nl int) {
	for l := 0; l < nl; l++ {
		var gg [12]S // G·g, 4×3
		for col := 0; col < 3; col++ {
			g0, g1, g2 := g[lanes*col+l], g[lanes*(3+col)+l], g[lanes*(6+col)+l]
			gg[col] = g0
			gg[3+col] = (g0 + g1 + g2) / 2
			gg[6+col] = (g0 - g1 + g2) / 2
			gg[9+col] = g2
		}
		for row := 0; row < 4; row++ {
			t0, t1, t2 := gg[row*3], gg[row*3+1], gg[row*3+2]
			o := u[4*row*stride+l : (4*row+3)*stride+l+1]
			o[0] = t0
			o[stride] = (t0 + t1 + t2) / 2
			o[2*stride] = (t0 - t1 + t2) / 2
			o[3*stride] = t2
		}
	}
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

// filter4Lanes is the scalar definition of tensor.FloatOps.WinoFilter4,
// for the first nl lanes of g, whose tap 3·ky+kx of lane l is at
// g[lanes·(3·ky+kx)+l]: G·g (column ops), then ·Gᵀ (row ops), component
// idx of lane l to u[idx·stride+l].
func filter4Lanes[S tensor.Scalar](u []S, stride int, g *[lanes * 9]S, nl int) {
	for l := 0; l < nl; l++ {
		var t [18]S // G·g, 6×3
		for col := 0; col < 3; col++ {
			r0, r1, r2, r3, r4, r5 := g4Row(g[lanes*col+l], g[lanes*(3+col)+l], g[lanes*(6+col)+l])
			t[col], t[3+col], t[6+col] = r0, r1, r2
			t[9+col], t[12+col], t[15+col] = r3, r4, r5
		}
		for row := 0; row < 6; row++ {
			u0, u1, u2, u3, u4, u5 := g4Row(t[row*3], t[row*3+1], t[row*3+2])
			o := u[6*row*stride+l : (6*row+5)*stride+l+1]
			o[0], o[stride], o[2*stride] = u0, u1, u2
			o[3*stride], o[4*stride], o[5*stride] = u3, u4, u5
		}
	}
}

// winoJob is one Winograd convolution call: the operands every
// (image, tile-row) unit of it shares.
type winoJob[S tensor.Scalar] struct {
	tile        int // output tile edge: 4 for F(4×4,3×3), 2 for F(2×2,3×3)
	u, bias     []S // transformed filter (tile+2)² × (outC, inC); bias may be nil
	ut          []S // the same transposed, (tile+2)² × (inC, outC)
	src         convSrc[S]
	n, h, w     int
	inC, outC   int
	dst         []S
	relu        bool
	rowsPerCall int // (image, tile-row) units per batch of transform-domain products

	// straight and transposed say whether some batch multiplies U·V, and
	// whether some batch — one narrower than panelTiles — multiplies
	// Vᵀ·Uᵀ; each needs its filter layout (u, ut).
	straight, transposed bool
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
		j.tile = 4
	}
	vsz, msz := wg.plan(&j, pool.Serial())
	wg.setFilters(&j, c, false)
	j.run(0, n*(h/j.tile), tensor.Grow(&wg.v, vsz).Data, tensor.Grow(&wg.m, msz).Data)
}

// ConvBatch is Conv parallelized over (image, tile-row) tasks on the
// given pool — the training forward. Tasks write disjoint output rows
// and draw scratch from a recycling pool, so results are bit-identical
// at any worker count and a single large image still fans out. The
// caller must have checked Usable and plane divisibility by four.
func (wg *Winograd[S]) ConvBatch(p *pool.Pool, c *Conv2D[S], x []S, n, h, w int, dst []S, relu bool) {
	wg.runTasks(p, c, false, &winoJob[S]{
		tile: 4, bias: c.Bias.W.Data, src: convSrc[S]{xa: x, ca: c.InC},
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
	wg.runTasks(p, c, true, &winoJob[S]{
		tile: 4, src: convSrc[S]{xa: dout, ca: c.OutC, chanMajor: true},
		n: n, h: h, w: w, inC: c.OutC, outC: c.InC, dst: dx,
	})
}

// runTasks fans the F(4×4,3×3) job's (image, tile-row) units out on the
// pool, after planning it and setting its filters (grad as for
// setFilters): the job is complete before the fan-out and only read by
// the tasks. Each range call borrows one scratch pair; task outputs are
// disjoint dst rows, so any partitioning yields bit-identical results.
func (wg *Winograd[S]) runTasks(p *pool.Pool, c *Conv2D[S], grad bool, j *winoJob[S]) {
	vsz, msz := wg.plan(j, p)
	wg.setFilters(j, c, grad)
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
// plane-sized buffers through DRAM. A batch narrower than panelTiles runs
// its products transposed (see productsT).
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
		if cn < panelTiles && j.ut != nil {
			j.productsT(vbuf, mbuf, comps, cn)
		} else {
			for idx := 0; idx < comps; idx++ {
				tensor.GemmSerial(
					mbuf[idx*j.outC*cn:(idx+1)*j.outC*cn],
					j.u[idx*j.outC*j.inC:(idx+1)*j.outC*j.inC],
					vbuf[idx*j.inC*cn:(idx+1)*j.inC*cn],
					j.outC, j.inC, cn)
			}
		}
		if j.tile == 4 {
			j.out4(lo, cn, mbuf, vbuf)
		} else {
			for t := lo; t < end; t++ {
				j.out2(t/th, t%th, mbuf, cn, (t-lo)*tw)
			}
		}
		lo = end
	}
}

// productsT computes a narrow batch's comps products M = U·V of cn tiles
// as Mᵀ = Vᵀ·Uᵀ, one component at a time: V's (inC × cn) block is
// transposed into the staging Vᵀ at the end of mbuf (on a SIMD panel
// with zero rows up to narrowRows), multiplied by Uᵀ (inC × outC), and
// the real rows of the product are transposed back into M's (outC × cn)
// block, where the output transforms read them.
func (j *winoJob[S]) productsT(vbuf, mbuf []S, comps, cn int) {
	inC, outC := j.inC, j.outC
	rows := cn
	if tensor.Float[S]().SIMD {
		rows = narrowRows(cn)
	}
	stage := mbuf[len(mbuf)-rows*(inC+outC):]
	vt, mt := stage[:rows*inC], stage[rows*inC:]
	clear(vt[cn*inC:])
	for idx := 0; idx < comps; idx++ {
		v := vbuf[idx*inC*cn : (idx+1)*inC*cn]
		for ic := 0; ic < inC; ic++ {
			for t, x := range v[ic*cn : (ic+1)*cn] {
				vt[t*inC+ic] = x
			}
		}
		tensor.GemmSerial(mt, vt, j.ut[idx*inC*outC:(idx+1)*inC*outC], rows, inC, outC)
		m := mbuf[idx*outC*cn : (idx+1)*outC*cn]
		for t := 0; t < cn; t++ {
			for oc, x := range mt[t*outC : (t+1)*outC] {
				m[oc*cn+t] = x
			}
		}
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

// lanes is how many consecutive tiles of a batch (or pairs of a filter
// operand) the F(4×4,3×3) transforms stage together: lane l of a group
// starting at batch tile b is tile b+l, whichever image and tile row that
// is.
const lanes = tensor.WinoLanes

// tileCursor walks a batch's tiles in V and M order: along a tile row,
// down the tile rows of an image, on into the next image.
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

// out4 is the F(4×4,3×3) output transform of the cn tiles of the batch
// that starts at unit lo: Y = Aᵀ·M·A (4×4 per tile) + bias (+ReLU) of
// batch tile b from column b of M's rows. Per output channel it walks the
// tiles as in4 does, eight at a time: a full group goes to the float
// backend's WinoOut4 when it has one, anything else through out4Lanes, and
// the lane-minor tiles either leaves in the staging block at the end of
// vbuf (free once the products have read V) are scattered to dst.
func (j *winoJob[S]) out4(lo, cn int, mbuf, vbuf []S) {
	h, w, outC := j.h, j.w, j.outC
	th, tw := h/4, w/4
	kern := tensor.Float[S]().WinoOut4
	stride := outC * cn
	y := (*[lanes * 24]S)(vbuf[len(vbuf)-lanes*36:])
	for oc := 0; oc < outC; oc++ {
		var bias S
		if j.bias != nil {
			bias = j.bias[oc]
		}
		cur := tileCursor{img: lo / th, ty: lo % th}
		for b := 0; b < cn; b += lanes {
			nl := min(lanes, cn-b)
			if m := mbuf[oc*cn+b:]; nl == lanes && kern != nil {
				kern(y, m, stride, bias, j.relu)
			} else {
				out4Lanes(y, m, stride, bias, j.relu, nl)
			}
			for l := 0; l < nl; l++ {
				o := j.dst[((cur.img*outC+oc)*h+4*cur.ty)*w+4*cur.tx:]
				for r := 0; r < 4; r++ {
					row, yr := o[r*w:r*w+4:r*w+4], y[4*lanes*r+l:4*lanes*r+3*lanes+l+1]
					row[0], row[1], row[2], row[3] = yr[0], yr[lanes], yr[2*lanes], yr[3*lanes]
				}
				cur.next(th, tw)
			}
		}
	}
}

// out4Lanes is the scalar definition of tensor.FloatOps.WinoOut4, for the
// first nl lanes: Aᵀ·M (column ops) of component idx of lane l at
// m[idx·stride+l], then ·A (row ops), plus bias (+ReLU), output 4r+c of
// lane l to y[lanes·(4r+c)+l].
func out4Lanes[S tensor.Scalar](y *[lanes * 24]S, m []S, stride int, bias S, relu bool, nl int) {
	for l := 0; l < nl; l++ {
		var e [24]S // Aᵀ·M, 4×6
		for cc := 0; cc < 6; cc++ {
			c := m[cc*stride+l : (30+cc)*stride+l+1]
			y0, y1, y2, y3 := at4Row(c[0], c[6*stride], c[12*stride], c[18*stride], c[24*stride], c[30*stride])
			e[cc], e[6+cc], e[12+cc], e[18+cc] = y0, y1, y2, y3
		}
		for r := 0; r < 4; r++ {
			y0, y1, y2, y3 := at4Row(e[r*6], e[r*6+1], e[r*6+2], e[r*6+3], e[r*6+4], e[r*6+5])
			y0, y1, y2, y3 = y0+bias, y1+bias, y2+bias, y3+bias
			if relu {
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
			o := y[4*lanes*r+l : 4*lanes*r+3*lanes+l+1]
			o[0], o[lanes], o[2*lanes], o[3*lanes] = y0, y1, y2, y3
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
