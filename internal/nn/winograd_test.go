package nn

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"seaice/internal/noise"
	"seaice/internal/pool"
	"seaice/internal/tensor"
)

// sameBitsOrNaN is sameBits with NaNs compared by NaN-ness: the payload a
// backend propagates is not part of the determinism contract.
func sameBitsOrNaN(t *testing.T, label string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d elements, want %d", label, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if math.Float32bits(g) != math.Float32bits(w) && !(g != g && w != w) {
			t.Fatalf("%s: element %d = %g (%#08x), want %g (%#08x)", label, i, g, math.Float32bits(g), w, math.Float32bits(w))
		}
	}
}

var (
	negZero32 = math.Float32frombits(0x80000000)
	nan32     = float32(math.NaN())
	posInf32  = float32(math.Inf(1))
	// benign values change no tile's finiteness: signed zeros, subnormals,
	// and odd mantissas whose products with 5 (and 4·a − 5·b sums) round.
	benign = []float32{0, negZero32, 1e-40, -3e-42, math.SmallestNonzeroFloat32,
		1 + 1.0/(1<<23), -(1 + 3.0/(1<<23)), 0.1, -0.3, 1e-20, 3e18}
	// poison values overflow or spread NaN/Inf over every output of the
	// tiles whose windows hold them.
	poison = []float32{nan32, posInf32, -posInf32, math.MaxFloat32, -math.MaxFloat32}
)

// salt overwrites about one element in nine of x with benign special
// values and, in every third plane-sized stretch, one element with a
// poison value — most tiles stay finite, a few carry NaN and ±Inf through
// the transforms, the products and the ReLU.
func salt(x []float32, plane int, seed uint64) {
	rng := noise.NewRNG(seed, 9)
	for i := range x {
		if rng.Intn(9) == 0 {
			x[i] = benign[rng.Intn(len(benign))]
		}
	}
	for p := 0; (p+1)*plane <= len(x); p += 3 {
		x[p*plane+rng.Intn(plane)] = poison[rng.Intn(len(poison))]
	}
}

// TestWinogradTransformConformance: the F(4×4,3×3) convolution of every
// float32 backend — the input, output and filter transforms eight lanes
// per register where the backend vectorises them, the scalar stencils for
// remainders and everywhere else — against the engine's per-tile-row
// result, bit for bit (NaNs by NaN-ness).
//
// "kernels" drives FloatOps.WinoIn4, WinoFilter4 and WinoOut4 directly
// against their scalar definitions on blocks of special values, over
// several stream strides, with special and zero biases and ReLU on and
// off, and checks that nothing between the strided streams is written.
// "filters" checks every filter transform layout — forward or input
// gradient, straight or transposed, F(4×4) and F(2×2) — against a
// pair-by-pair reference, on channel counts that leave partial lane
// groups. "layers" runs Conv (on a training and on a static engine),
// ConvBatch and InputGradBatch on salted inputs over 32²/16²/8²/4² planes
// with image counts that make lane groups span tile rows and images (n = 8
// on 4² puts eight images in one register), tile budgets that leave
// remainders of four and end batches mid-image, batches narrower than the
// panel (transposed products: one image on 8² and 4², ragged ends),
// ragged channel counts (3, 5, 13: filter operands that are not whole lane
// groups), the two-source and channel-major sources, ReLU on and off, at
// 1–3 workers. "canaries" runs partial unit ranges of a job over guarded
// scratch and a guarded, sentinel-filled dst — bias nil and non-nil — and
// checks nothing but the range's own output rows was written.
func TestWinogradTransformConformance(t *testing.T) {
	t.Run("kernels", testWinogradKernels)
	t.Run("filters", testWinogradFilters)
	t.Run("layers", testWinogradLayers)
	t.Run("canaries", testWinogradCanaries)
}

// gap marks stream elements a kernel must not write: not a NaN, so
// sameBitsOrNaN tells it from anything a kernel computes.
var gap = math.Float32frombits(0xcafef00d)

// gapped returns n elements set to gap.
func gapped(n int) []float32 {
	b := make([]float32, n)
	for i := range b {
		b[i] = gap
	}
	return b
}

func testWinogradKernels(t *testing.T) {
	specials := append(append([]float32{}, benign...), poison...)
	rng := noise.NewRNG(4, 4)
	fill := func(x []float32, round int) {
		for i := range x {
			switch {
			case round == 0: // signed zeros only: 4·(−0) − 5·(−0) is +0, −4·(−0) − 4·(+0) is +0, …
				x[i] = []float32{0, negZero32}[rng.Intn(2)]
			case round%2 == 1 && rng.Intn(4) == 0:
				x[i] = specials[rng.Intn(len(specials))]
			default:
				x[i] = float32(rng.NormFloat64())
			}
		}
	}
	// Biases: the zero a nil bias adds (−0 + 0 is +0), −0, a normal value,
	// and specials that overflow or poison every output.
	biases := []float32{0, negZero32, 0.75, -1e-40, math.MaxFloat32, -posInf32, nan32}
	strides := []int{lanes, lanes + 3, 5 * lanes}
	for _, backend := range float32Backends {
		t.Run(backend, func(t *testing.T) {
			useFloat32Backend(t, backend)
			ops := tensor.Float[float32]()
			if ops.WinoIn4 == nil && ops.WinoFilter4 == nil && ops.WinoOut4 == nil {
				t.Skipf("%s runs the scalar stencils", backend)
			}
			for round := 0; round < 40; round++ {
				for _, stride := range strides {
					label := fmt.Sprintf("round %d stride %d", round, stride)
					if ops.WinoIn4 != nil {
						var d [lanes * 36]float32
						fill(d[:], round)
						dk := d
						want, got := gapped(36*stride), gapped(36*stride)
						in4Lanes(want, stride, &d, lanes)
						ops.WinoIn4(got, stride, &dk)
						sameBitsOrNaN(t, "WinoIn4 "+label, got, want)
					}
					if ops.WinoFilter4 != nil {
						var g [lanes * 9]float32
						fill(g[:], round)
						gk := g
						want, got := gapped(36*stride), gapped(36*stride)
						filter4Lanes(want, stride, &g, lanes)
						ops.WinoFilter4(got, stride, &gk)
						sameBitsOrNaN(t, "WinoFilter4 "+label, got, want)
					}
					if ops.WinoOut4 != nil {
						m := gapped(36 * stride)
						for idx := 0; idx < 36; idx++ {
							fill(m[idx*stride:idx*stride+lanes], round)
						}
						mk := append([]float32(nil), m...)
						bias := biases[round%len(biases)]
						for _, relu := range []bool{false, true} {
							var want, got [lanes * 24]float32
							out4Lanes(&want, m, stride, bias, relu, lanes)
							ops.WinoOut4(&got, mk, stride, bias, relu)
							l := fmt.Sprintf("WinoOut4 %s bias %g relu=%v", label, bias, relu)
							sameBitsOrNaN(t, l, got[:lanes*16], want[:lanes*16])
							sameBitsOrNaN(t, l+" (M streams read only)", mk, m)
						}
					}
				}
			}
		})
	}
}

// filterRef is the filter transform of conv c laid out as filter lays it
// out, computed pair by pair from the taps it names — forward W[oc][ic],
// or for the input gradient the transposed, 180°-rotated filter — with no
// lane staging.
func filterRef(c *Conv2D[float32], tile int, grad, transposed bool) []float32 {
	rows, cols := c.OutC, c.InC
	if grad {
		rows, cols = cols, rows
	}
	if transposed {
		rows, cols = cols, rows
	}
	comps, step := (tile+2)*(tile+2), rows*cols
	u := make([]float32, comps*step)
	for r := 0; r < rows; r++ {
		for col := 0; col < cols; col++ {
			oc, ic := r, col
			if grad != transposed {
				oc, ic = col, r
			}
			var g [lanes * 9]float32
			for ky := 0; ky < 3; ky++ {
				for kx := 0; kx < 3; kx++ {
					k := ky*3 + kx
					if grad {
						k = 8 - k
					}
					g[lanes*(ky*3+kx)] = c.Weight.W.Data[(oc*c.InC+ic)*9+k]
				}
			}
			var one [36]float32
			if tile == 4 {
				filter4Lanes(one[:], 1, &g, 1)
			} else {
				filter2Lanes(one[:], 1, &g, 1)
			}
			for idx := 0; idx < comps; idx++ {
				u[idx*step+r*cols+col] = one[idx]
			}
		}
	}
	return u
}

func testWinogradFilters(t *testing.T) {
	for _, backend := range float32Backends {
		t.Run(backend, func(t *testing.T) {
			useFloat32Backend(t, backend)
			for i, ch := range [][2]int{{3, 5}, {5, 13}, {13, 3}, {13, 13}, {8, 8}, {1, 7}} {
				c := NewConv2D[float32]("c", ch[0], ch[1], 3, noise.NewRNG(uint64(3000+i), 2))
				salt(c.Weight.W.Data, 9, uint64(3100+i))
				for _, tile := range []int{4, 2} {
					for _, grad := range []bool{false, true} {
						for _, transposed := range []bool{false, true} {
							j := &winoJob[float32]{tile: tile, inC: ch[0], outC: ch[1]}
							if grad {
								j.inC, j.outC = j.outC, j.inC
							}
							label := fmt.Sprintf("%s in %d out %d tile %d grad=%v transposed=%v", backend, ch[0], ch[1], tile, grad, transposed)
							wg := NewWinograd[float32](false)
							sameBitsOrNaN(t, label, wg.filter(j, c, grad, transposed), filterRef(c, tile, grad, transposed))
						}
					}
				}
			}
		})
	}
}

// winoCase is one conformance shape: n images of ca+cb input channels
// (split over two sources for Conv) on an h×w plane, outC filters.
type winoCase struct{ n, ca, cb, outC, h, w int }

// winoOperands draws the layer and salted inputs for a case: the two
// sources, their per-image interleaving x (what the pooled entries take)
// and a channel-major dout.
func winoOperands(s winoCase, seed uint64) (c *Conv2D[float32], xa, xb, x, dout []float32) {
	inC, plane := s.ca+s.cb, s.h*s.w
	c = NewConv2D[float32]("c", inC, s.outC, 3, noise.NewRNG(seed, 2))
	copy(c.Bias.W.Data, randn(seed+50, s.outC))
	c.Bias.W.Data[0] = negZero32
	xa = randn(seed+100, s.n*s.ca*plane)
	xb = randn(seed+200, s.n*s.cb*plane)
	dout = randn(seed+300, s.outC*s.n*plane)
	salt(xa, plane, seed+1)
	salt(xb, plane, seed+2)
	salt(dout, plane, seed+3)
	if s.n > 1 { // one all-zero image: exact zeros plus bias through the ReLU
		clear(xa[s.ca*plane : 2*s.ca*plane])
		clear(xb[s.cb*plane : 2*s.cb*plane])
	}
	for img := 0; img < s.n; img++ {
		x = append(x, xa[img*s.ca*plane:(img+1)*s.ca*plane]...)
		x = append(x, xb[img*s.cb*plane:(img+1)*s.cb*plane]...)
	}
	return c, xa, xb, x, dout
}

func testWinogradLayers(t *testing.T) {
	channels := []struct{ ca, cb, outC int }{{3, 0, 5}, {5, 2, 3}, {4, 3, 7}, {8, 8, 8}, {8, 5, 3}, {5, 0, 13}}
	var cases []winoCase
	for _, side := range []int{32, 16, 8, 4} {
		for i, n := range []int{1, 2, 4, 5, 8, 9} {
			ch := channels[(i+side/8)%len(channels)]
			cases = append(cases, winoCase{n, ch.ca, ch.cb, ch.outC, side, side})
		}
	}
	// Transposed products: one image on 8² and 4², ragged last batches of
	// seven images, and output channel counts of 3 and 12 (panel column
	// tails).
	cases = append(cases, winoCase{1, 8, 4, 12, 8, 8}, winoCase{1, 5, 0, 12, 4, 4}, winoCase{1, 4, 3, 3, 8, 8},
		winoCase{7, 5, 2, 3, 4, 4}, winoCase{7, 6, 0, 12, 8, 8}, winoCase{1, 8, 5, 13, 4, 4}, winoCase{3, 13, 0, 5, 12, 12})
	defer pool.SetSharedWorkers(0)
	for i, s := range cases {
		c, xa, xb, x, dout := winoOperands(s, uint64(1000+i))
		outLen, dxLen := s.n*s.outC*s.h*s.w, s.n*(s.ca+s.cb)*s.h*s.w

		// The reference: engine backend, one product set per tile row.
		var wantY [2][]float32 // by relu
		var wantDx []float32
		t.Run("reference", func(t *testing.T) {
			useFloat32Backend(t, "engine")
			wg := NewWinograd[float32](false)
			wg.batchTiles = 1
			wg.noTranspose = true
			for r, relu := range []bool{false, true} {
				wantY[r] = make([]float32, outLen)
				wg.Conv(c, xa, s.ca, xb, s.cb, s.n, s.h, s.w, wantY[r], relu)
			}
			wantDx = make([]float32, dxLen)
			wg.InputGradBatch(pool.Serial(), c, dout, s.n, s.h, s.w, wantDx)
		})
		for _, backend := range float32Backends {
			t.Run(backend, func(t *testing.T) {
				useFloat32Backend(t, backend)
				st := NewWinograd[float32](true) // the session's engine: filters cached on the first call
				for pass := 0; pass < 2; pass++ {
					for r, relu := range []bool{false, true} {
						y := make([]float32, outLen)
						st.Conv(c, xa, s.ca, xb, s.cb, s.n, s.h, s.w, y, relu)
						sameBitsOrNaN(t, fmt.Sprintf("%s %+v relu=%v static Conv pass %d", backend, s, relu, pass), y, wantY[r])
					}
				}
				for _, tiles := range []int{0, 8, 12, 16, 20, 64} { // 0: the default budget
					wg := NewWinograd[float32](false)
					wg.batchTiles = tiles
					label := fmt.Sprintf("%s %+v tiles=%d", backend, s, tiles)
					workers := []int{1}
					if tiles == 0 || tiles == 12 {
						workers = []int{1, 2, 3}
					}
					for r, relu := range []bool{false, true} {
						y := make([]float32, outLen)
						wg.Conv(c, xa, s.ca, xb, s.cb, s.n, s.h, s.w, y, relu)
						sameBitsOrNaN(t, fmt.Sprintf("%s relu=%v Conv", label, relu), y, wantY[r])
						for _, nw := range workers {
							pool.SetSharedWorkers(nw)
							y = make([]float32, outLen)
							wg.ConvBatch(pool.Shared(), c, x, s.n, s.h, s.w, y, relu)
							sameBitsOrNaN(t, fmt.Sprintf("%s relu=%v workers=%d ConvBatch", label, relu, nw), y, wantY[r])
						}
					}
					for _, nw := range workers {
						pool.SetSharedWorkers(nw)
						dx := make([]float32, dxLen)
						wg.InputGradBatch(pool.Shared(), c, dout, s.n, s.h, s.w, dx)
						sameBitsOrNaN(t, fmt.Sprintf("%s workers=%d InputGradBatch", label, nw), dx, wantDx)
					}
				}
			})
		}
	}
}

func testWinogradCanaries(t *testing.T) {
	const guard = 16
	sentinel := math.Float32frombits(0xcafef00d)
	guarded := func(n int) []float32 {
		b := make([]float32, guard+n+guard)
		for i := range b {
			b[i] = sentinel
		}
		return b
	}
	intact := func(label string, b []float32) {
		t.Helper()
		for i, v := range b {
			if math.Float32bits(v) != math.Float32bits(sentinel) {
				t.Fatalf("%s: canary %d overwritten with %g", label, i, v)
			}
		}
	}
	cases := []winoCase{{3, 3, 0, 5, 32, 32}, {5, 7, 0, 3, 16, 16}, {9, 5, 0, 7, 8, 8}, {20, 3, 0, 5, 4, 4}, {2, 5, 0, 3, 12, 20},
		{4, 13, 0, 3, 8, 8}, {3, 5, 0, 13, 12, 12}}
	for i, s := range cases {
		c, _, _, x, _ := winoOperands(s, uint64(2000+i))
		th, plane := s.h/4, s.h*s.w
		units := s.n * th
		for _, withBias := range []bool{false, true} {
			job := func(dst []float32) *winoJob[float32] {
				j := &winoJob[float32]{
					tile: 4, src: convSrc[float32]{xa: x, ca: s.ca}, n: s.n, h: s.h, w: s.w,
					inC: s.ca, outC: s.outC, dst: dst, relu: true,
				}
				if withBias {
					j.bias = c.Bias.W.Data
				}
				return j
			}
			var want []float32
			t.Run("reference", func(t *testing.T) {
				useFloat32Backend(t, "engine")
				wg := NewWinograd[float32](false)
				wg.batchTiles = 1
				wg.noTranspose = true
				want = make([]float32, s.n*s.outC*plane)
				j := job(want)
				vsz, msz := wg.plan(j, pool.Serial())
				wg.setFilters(j, c, false)
				j.run(0, units, make([]float32, vsz), make([]float32, msz))
			})
			for _, backend := range float32Backends {
				t.Run(backend, func(t *testing.T) {
					useFloat32Backend(t, backend)
					for _, tiles := range []int{0, 12, 20} {
						for _, rng := range [][2]int{{0, units}, {1, units - 1}, {units / 3, units/3 + 1}, {units / 2, units}} {
							lo, hi := rng[0], rng[1]
							if lo >= hi {
								continue
							}
							label := fmt.Sprintf("%s %+v bias=%v tiles=%d units [%d,%d)", backend, s, withBias, tiles, lo, hi)
							wg := NewWinograd[float32](false)
							wg.batchTiles = tiles
							dst := guarded(len(want))
							j := job(dst[guard : guard+len(want)])
							vsz, msz := wg.plan(j, pool.Serial())
							// Any range of the job: both product layouts.
							j.straight, j.transposed = true, s.w/4 < panelTiles
							wg.setFilters(j, c, false)
							v, m := guarded(vsz), guarded(msz)
							j.run(lo, hi, v[guard:guard+vsz], m[guard:guard+msz])

							intact(label+" before V", v[:guard])
							intact(label+" after V", v[guard+vsz:])
							intact(label+" before M", m[:guard])
							intact(label+" after M", m[guard+msz:])
							intact(label+" before dst", dst[:guard])
							intact(label+" after dst", dst[guard+len(want):])
							for img := 0; img < s.n; img++ {
								for oc := 0; oc < s.outC; oc++ {
									for y := 0; y < s.h; y++ {
										at := (img*s.outC+oc)*plane + y*s.w
										got, rowLabel := j.dst[at:at+s.w], fmt.Sprintf("%s image %d channel %d row %d", label, img, oc, y)
										if u := img*th + y/4; u >= lo && u < hi {
											sameBitsOrNaN(t, rowLabel, got, want[at:at+s.w])
										} else {
											intact(rowLabel, got)
										}
									}
								}
							}
						}
					}
				})
			}
		}
	}
}

// winogradTransform4 returns a function that runs one F(4×4,3×3)
// transform of a training step of n images of c channels on h×w planes
// under the active float backend — "in4" and "out4" batch by batch as
// ConvBatch runs them (out4 with bias and ReLU), "filter4/fwd" and
// "filter4/grad" the forward and input-gradient filter transforms of a
// c→c convolution — with the number of tiles or filters it transforms.
func winogradTransform4(name string, n, c, h, w int) (run func(), items int) {
	x := make([]float32, n*c*h*w)
	for i := range x {
		x[i] = float32(i%13) - 6
	}
	j := &winoJob[float32]{
		tile: 4, bias: make([]float32, c), src: convSrc[float32]{xa: x, ca: c},
		n: n, h: h, w: w, inC: c, outC: c, dst: make([]float32, len(x)), relu: true,
	}
	wg := NewWinograd[float32](false)
	vsz, msz := wg.plan(j, pool.Serial())
	v, m := make([]float32, vsz), make([]float32, msz)
	copy(m, x)
	units, tw := n*(h/4), w/4
	batches := func(transform func(lo, cn int)) func() {
		return func() {
			for lo := 0; lo < units; lo += j.rowsPerCall {
				transform(lo, (min(lo+j.rowsPerCall, units)-lo)*tw)
			}
		}
	}
	conv := NewConv2D[float32]("c", c, c, 3, noise.NewRNG(1, 2))
	switch name {
	case "in4":
		return batches(func(lo, cn int) { j.in4(lo, cn, v) }), units * tw
	case "out4":
		return batches(func(lo, cn int) { j.out4(lo, cn, m, v) }), units * tw
	case "filter4/fwd":
		return func() { wg.filter(j, conv, false, false) }, c * c
	case "filter4/grad":
		return func() { wg.filter(j, conv, true, false) }, c * c
	}
	panic("unknown transform " + name)
}

// BenchmarkWinogradTransforms times each F(4×4,3×3) transform on its own
// — the input transform (window gather + Bᵀ·d·B), the output transform
// (Aᵀ·M·A + bias + ReLU + scatter) and the filter transform (tap gather +
// G·g·Gᵀ) in the forward and the input-gradient layout — for one 4-image
// rank step at the three U-Net levels a 32² tile trains through, per
// float32 backend: "engine" runs the scalar stencils, "avx2" the eight-lane
// kernels (bit-identical outputs, see TestWinogradTransformConformance).
// The transforms are internal to a convolution and cannot be timed apart
// from its products otherwise.
func BenchmarkWinogradTransforms(b *testing.B) {
	const n = 4
	levels := []struct{ side, c int }{{32, 8}, {16, 16}, {8, 32}}
	for _, name := range []string{"in4", "out4", "filter4/fwd", "filter4/grad"} {
		unit := "tiles/s"
		if strings.HasPrefix(name, "filter4") {
			unit = "filters/s"
		}
		for _, l := range levels {
			for _, backend := range float32Backends {
				b.Run(fmt.Sprintf("%s/%dx%dx%d/%s", name, l.side, l.side, l.c, backend), func(b *testing.B) {
					useFloat32Backend(b, backend)
					transform, items := winogradTransform4(name, n, l.c, l.side, l.side)
					transform()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						transform()
					}
					b.ReportMetric(float64(b.N*items)/b.Elapsed().Seconds(), unit)
				})
			}
		}
	}
}
