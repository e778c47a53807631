package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"seaice/internal/tensor"
)

// The oracle below is the quantized layers' original definition, kept
// verbatim in spirit: materialise the im2col columns of plain (unpadded)
// NHWC tensors, multiply them with a scalar row-dot GEMM against row-major
// quantized weights, and requantize one element at a time with
// tensor.RequantClamp. The direct-convolution layers must reproduce it
// byte for byte on every shape and backend.

func refGemmU8S8(w []int8, x []uint8, rows, k, npx int, out []int32) {
	for r := 0; r < rows; r++ {
		for c := 0; c < npx; c++ {
			var acc int32
			for i := 0; i < k; i++ {
				acc += int32(w[r*k+i]) * int32(x[c*k+i])
			}
			out[r*npx+c] = acc
		}
	}
}

// refIm2Col3x3 gathers tap-major GEMM columns for a same-padded 3×3
// convolution over the channel concat of two NHWC sources (cb may be 0):
// out-of-image taps hold the source's zero-point byte.
func refIm2Col3x3(xa []uint8, ca int, za uint8, xb []uint8, cb int, zb uint8, n, h, w int) []uint8 {
	inC := ca + cb
	cols := make([]uint8, n*h*w*9*inC)
	for img := 0; img < n; img++ {
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				col := cols[((img*h+y)*w+x)*9*inC:]
				for t := 0; t < 9; t++ {
					yy, xx := y+t/3-1, x+t%3-1
					d := col[t*inC : (t+1)*inC]
					for c := range d {
						inside := yy >= 0 && yy < h && xx >= 0 && xx < w
						switch {
						case c < ca && inside:
							d[c] = xa[((img*h+yy)*w+xx)*ca+c]
						case c < ca:
							d[c] = za
						case inside:
							d[c] = xb[((img*h+yy)*w+xx)*cb+c-ca]
						default:
							d[c] = zb
						}
					}
				}
			}
		}
	}
	return cols
}

// refQuantize folds the per-channel input scales into tap-major float
// weights and quantizes them per output row, returning the rows, their
// scales and each row's zero-point correction Σ_c z_c·Σ_t wq.
func refQuantize(w []float64, rows, inC, taps int, tapMajor func(r, c, t int) int, in []tensor.ActQuant) (q []int8, scales []float64, zCorr []int64) {
	wf := make([]float64, rows*inC*taps)
	for r := 0; r < rows; r++ {
		for c := 0; c < inC; c++ {
			for t := 0; t < taps; t++ {
				wf[r*inC*taps+t*inC+c] = w[tapMajor(r, c, t)] * in[c].Scale
			}
		}
	}
	q, scales = tensor.QuantizeWeightsPerChannel(wf, rows, inC*taps)
	zCorr = make([]int64, rows)
	for r := 0; r < rows; r++ {
		for i, v := range q[r*inC*taps : (r+1)*inC*taps] {
			zCorr[r] += int64(in[i%inC].Zero) * int64(v)
		}
	}
	return q, scales, zCorr
}

// refQConv is the oracle K×K convolution (K = 1 or 3) on unpadded NHWC.
func refQConv(k int, w, bias []float64, xa []uint8, ca int, qa tensor.ActQuant, xb []uint8, cb int, qb tensor.ActQuant, n, h, wd, outC int, out tensor.ActQuant) []uint8 {
	inC, taps := ca+cb, k*k
	in := make([]tensor.ActQuant, inC)
	for c := range in {
		in[c] = qa
		if c >= ca {
			in[c] = qb
		}
	}
	q, scales, zCorr := refQuantize(w, outC, inC, taps, func(r, c, t int) int { return (r*inC+c)*taps + t }, in)
	npx := n * h * wd
	var cols []uint8
	if k == 3 {
		cols = refIm2Col3x3(xa, ca, qa.Zero, xb, cb, qb.Zero, n, h, wd)
	} else {
		cols = make([]uint8, npx*inC)
		for p := 0; p < npx; p++ {
			copy(cols[p*inC:], xa[p*ca:(p+1)*ca])
			copy(cols[p*inC+ca:], xb[p*cb:(p+1)*cb])
		}
	}
	acc := make([]int32, outC*npx)
	refGemmU8S8(q, cols, outC, inC*taps, npx, acc)
	y := make([]uint8, npx*outC)
	for oc := 0; oc < outC; oc++ {
		b := int32(int64(math.Round(bias[oc]/scales[oc])) - zCorr[oc])
		rq := tensor.NewRequant(scales[oc] / out.Scale)
		for p := 0; p < npx; p++ {
			y[p*outC+oc] = tensor.RequantClamp(acc[oc*npx+p]+b, rq, out.Zero)
		}
	}
	return y
}

// refQConvT is the oracle 2×2 stride-2 transposed convolution: four 1×1
// GEMMs, one per tap, each scattered to its output parity.
func refQConvT(w, bias []float64, x []uint8, inC int, qin tensor.ActQuant, n, h, wd, outC int, out tensor.ActQuant) []uint8 {
	in := make([]tensor.ActQuant, inC)
	for c := range in {
		in[c] = qin
	}
	npx := n * h * wd
	y := make([]uint8, 4*npx*outC)
	acc := make([]int32, outC*npx)
	for tap := 0; tap < 4; tap++ {
		q, scales, zCorr := refQuantize(w, outC, inC, 1, func(r, c, _ int) int { return c*outC*4 + r*4 + tap }, in)
		refGemmU8S8(q, x, outC, inC, npx, acc)
		for oc := 0; oc < outC; oc++ {
			b := int32(int64(math.Round(bias[oc]/scales[oc])) - zCorr[oc])
			rq := tensor.NewRequant(scales[oc] / out.Scale)
			for p := 0; p < npx; p++ {
				img, rem := p/(h*wd), p%(h*wd)
				py, px := rem/wd, rem%wd
				y[((img*2*h+2*py+tap/2)*2*wd+2*px+tap%2)*outC+oc] = tensor.RequantClamp(acc[oc*npx+p]+b, rq, out.Zero)
			}
		}
	}
	return y
}

// refQHead is the oracle classifier: 1×1 GEMM, float logits, argmax with
// the strictly-greater tie rule.
func refQHead(w, bias []float64, x []uint8, inC int, qin tensor.ActQuant, npx, classes int) []uint8 {
	in := make([]tensor.ActQuant, inC)
	for c := range in {
		in[c] = qin
	}
	q, scales, zCorr := refQuantize(w, classes, inC, 1, func(r, c, _ int) int { return r*inC + c }, in)
	acc := make([]int32, classes*npx)
	refGemmU8S8(q, x, classes, inC, npx, acc)
	labels := make([]uint8, npx)
	for p := 0; p < npx; p++ {
		best, bv := 0, scales[0]*float64(acc[p]-int32(zCorr[0]))+bias[0]
		for cl := 1; cl < classes; cl++ {
			if v := scales[cl]*float64(acc[cl*npx+p]-int32(zCorr[cl])) + bias[cl]; v > bv {
				best, bv = cl, v
			}
		}
		labels[p] = uint8(best)
	}
	return labels
}

// qcase is one random layer instance: float weights and bias, random
// activations in the quantized domain, and an output scale that spreads
// the requantized values over [0, 127] instead of pinning them to a clamp.
type qcase struct {
	rng *rand.Rand
}

func (q qcase) floats(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = q.rng.Float64()*2 - 1
	}
	return v
}

func (q qcase) acts(n int) []uint8 {
	v := make([]uint8, n)
	for i := range v {
		v[i] = uint8(q.rng.Intn(tensor.QuantMax + 1))
	}
	return v
}

func (q qcase) inQuant(zero uint8) tensor.ActQuant {
	return tensor.ActQuant{Scale: 0.01 + 0.02*q.rng.Float64(), Zero: zero}
}

func outQuant(k int, zero uint8) tensor.ActQuant {
	return tensor.ActQuant{Scale: 0.01 * math.Sqrt(float64(k)), Zero: zero}
}

// load copies an unpadded NHWC tensor into a fresh QAct.
func load(x []uint8, n, h, w, c int, zero uint8) *QAct {
	a := new(QAct)
	a.Reshape(n, h, w, c, zero)
	for img := 0; img < n; img++ {
		for y := 0; y < h; y++ {
			row := a.Row(img, y)
			for px := 0; px < w; px++ {
				copy(row[px*a.Stride():], x[((img*h+y)*w+px)*c:][:c])
			}
		}
	}
	return a
}

// interior copies a QAct's logical contents back out, unpadded.
func interior(a *QAct) []uint8 {
	x := make([]uint8, 0, a.N*a.H*a.W*a.C)
	for img := 0; img < a.N; img++ {
		for y := 0; y < a.H; y++ {
			row := a.Row(img, y)
			for px := 0; px < a.W; px++ {
				x = append(x, row[px*a.Stride():][:a.C]...)
			}
		}
	}
	return x
}

func mustEqual(t *testing.T, what string, got, want []uint8) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d bytes, oracle %d", what, len(got), len(want))
	}
	distinct := map[uint8]bool{}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: byte %d = %d, oracle %d", what, i, got[i], want[i])
		}
		distinct[want[i]] = true
	}
	if len(want) >= 64 && len(distinct) < 2 {
		t.Fatalf("%s: degenerate case, oracle output is constant", what)
	}
}

var (
	qBatches  = []int{1, 3}
	qPlanes   = [][2]int{{2, 2}, {4, 4}, {5, 7}, {32, 32}}
	qChannels = []int{3, 8, 16, 64}
)

// forEachBackend runs f under every available int8 backend for small
// planes and under the active one for the 32×32 plane (the scalar
// backends are the slow side of an already scalar oracle there).
func forEachBackend(t *testing.T, h, w int, f func(backend string)) {
	active := tensor.Int8().Name
	if h*w > 64 {
		f(active)
		return
	}
	defer func() {
		if err := tensor.SelectInt8(active); err != nil {
			t.Fatal(err)
		}
	}()
	for _, name := range tensor.Int8BackendNames() {
		if tensor.SelectInt8(name) != nil {
			continue // registered but unavailable on this host
		}
		f(name)
	}
}

func TestQConv3x3MatchesOracle(t *testing.T) {
	qc := qcase{rand.New(rand.NewSource(31))}
	for _, n := range qBatches {
		for _, hw := range qPlanes {
			h, w := hw[0], hw[1]
			for _, inC := range qChannels {
				for _, outC := range qChannels {
					wts, bias := qc.floats(outC*inC*9), qc.floats(outC)
					x := qc.acts(n * h * w * inC)
					qin, qout := qc.inQuant(0), outQuant(9*inC, 0)
					want := refQConv(3, wts, bias, x, inC, qin, nil, 0, tensor.ActQuant{}, n, h, w, outC, qout)
					c, err := NewQConv("t", []QIn{{inC, qin}}, outC, 3, wts, bias, qout)
					if err != nil {
						t.Fatal(err)
					}
					forEachBackend(t, h, w, func(backend string) {
						var out QAct
						var acc []int32
						c.Forward(&out, &acc, load(x, n, h, w, inC, qin.Zero))
						mustEqual(t, fmt.Sprintf("%s n=%d %dx%d %d→%d", backend, n, h, w, inC, outC), interior(&out), want)
					})
				}
			}
		}
	}
}

// TestQConvConcatMatchesOracle: two sources with different non-zero
// zero-points — the decoder's skip+up input — accumulate into one sum,
// and each source's halo carries its own zero-point.
func TestQConvConcatMatchesOracle(t *testing.T) {
	qc := qcase{rand.New(rand.NewSource(32))}
	for _, n := range qBatches {
		for _, hw := range qPlanes {
			h, w := hw[0], hw[1]
			for _, ca := range qChannels {
				for _, cb := range []int{3, 16} {
					outC := qChannels[(ca+cb)%len(qChannels)]
					inC := ca + cb
					wts, bias := qc.floats(outC*inC*9), qc.floats(outC)
					xa, xb := qc.acts(n*h*w*ca), qc.acts(n*h*w*cb)
					qa, qb, qout := qc.inQuant(9), qc.inQuant(77), outQuant(9*inC, 40)
					want := refQConv(3, wts, bias, xa, ca, qa, xb, cb, qb, n, h, w, outC, qout)
					c, err := NewQConv("t", []QIn{{ca, qa}, {cb, qb}}, outC, 3, wts, bias, qout)
					if err != nil {
						t.Fatal(err)
					}
					forEachBackend(t, h, w, func(backend string) {
						var out QAct
						var acc []int32
						c.Forward(&out, &acc, load(xa, n, h, w, ca, qa.Zero), load(xb, n, h, w, cb, qb.Zero))
						mustEqual(t, fmt.Sprintf("%s n=%d %dx%d %d+%d→%d", backend, n, h, w, ca, cb, outC), interior(&out), want)
					})
				}
			}
		}
	}
}

func TestQConv1x1AndHeadMatchOracle(t *testing.T) {
	qc := qcase{rand.New(rand.NewSource(33))}
	for _, n := range qBatches {
		for _, hw := range qPlanes {
			h, w := hw[0], hw[1]
			for _, inC := range qChannels {
				for _, outC := range qChannels {
					wts, bias := qc.floats(outC*inC), qc.floats(outC)
					x := qc.acts(n * h * w * inC)
					qin, qout := qc.inQuant(21), outQuant(inC, 5)
					c, err := NewQConv("t", []QIn{{inC, qin}}, outC, 1, wts, bias, qout)
					if err != nil {
						t.Fatal(err)
					}
					hd, err := NewQHead(QIn{inC, qin}, outC, wts, bias)
					if err != nil {
						t.Fatal(err)
					}
					wantConv := refQConv(1, wts, bias, x, inC, qin, nil, 0, tensor.ActQuant{}, n, h, w, outC, qout)
					wantHead := refQHead(wts, bias, x, inC, qin, n*h*w, outC)
					forEachBackend(t, h, w, func(backend string) {
						what := fmt.Sprintf("%s n=%d %dx%d %d→%d", backend, n, h, w, inC, outC)
						in := load(x, n, h, w, inC, qin.Zero)
						var out QAct
						var acc []int32
						c.Forward(&out, &acc, in)
						mustEqual(t, "conv1x1 "+what, interior(&out), wantConv)
						labels := make([]uint8, n*h*w)
						hd.Forward(labels, &acc, in)
						mustEqual(t, "head "+what, labels, wantHead)
					})
				}
			}
		}
	}
}

func TestQConvTMatchesOracle(t *testing.T) {
	qc := qcase{rand.New(rand.NewSource(34))}
	for _, n := range qBatches {
		for _, hw := range qPlanes {
			h, w := hw[0], hw[1]
			for _, inC := range qChannels {
				for _, outC := range qChannels {
					wts, bias := qc.floats(inC*outC*4), qc.floats(outC)
					x := qc.acts(n * h * w * inC)
					qin, qout := qc.inQuant(0), outQuant(inC, 64)
					want := refQConvT(wts, bias, x, inC, qin, n, h, w, outC, qout)
					u, err := NewQConvT("t", QIn{inC, qin}, outC, wts, bias, qout)
					if err != nil {
						t.Fatal(err)
					}
					forEachBackend(t, h, w, func(backend string) {
						var out QAct
						var acc []int32
						u.Forward(&out, &acc, load(x, n, h, w, inC, qin.Zero))
						if out.H != 2*h || out.W != 2*w {
							t.Fatalf("up-conv output %dx%d for input %dx%d", out.H, out.W, h, w)
						}
						mustEqual(t, fmt.Sprintf("%s n=%d %dx%d %d→%d", backend, n, h, w, inC, outC), interior(&out), want)
					})
				}
			}
		}
	}
}

// TestQActHalo pins the halo rule: Reshape fills a changed buffer with the
// zero-point, an unchanged one is left alone, and layers and the pool
// write only the interior.
func TestQActHalo(t *testing.T) {
	var a QAct
	a.Reshape(2, 4, 4, 3, 7)
	if a.Stride() != 4 || len(a.Data) != 2*6*6*4 {
		t.Fatalf("stride %d, %d bytes", a.Stride(), len(a.Data))
	}
	for _, row := range [][]uint8{a.Row(0, 0), a.Row(1, 3)} {
		for i := range row {
			row[i] = 99
		}
	}
	a.Reshape(2, 4, 4, 3, 7) // unchanged: contents kept
	if a.Row(1, 3)[0] != 99 {
		t.Fatal("an unchanged Reshape cleared the interior")
	}
	var p QAct
	QMaxPool2(&p, &a)
	if p.H != 2 || p.W != 2 || p.Zero != 7 || p.Row(0, 0)[0] != 99 || p.Row(0, 1)[0] != 7 {
		t.Fatalf("pool: %dx%d zero %d, rows %v / %v", p.H, p.W, p.Zero, p.Row(0, 0), p.Row(0, 1))
	}
	for _, buf := range []*QAct{&a, &p} {
		st := buf.Stride()
		for i, v := range buf.Data {
			px := i / st
			y, x := px/(buf.W+2)%(buf.H+2), px%(buf.W+2)
			if (y == 0 || y == buf.H+1 || x == 0 || x == buf.W+1) && v != 7 {
				t.Fatalf("halo byte %d (y=%d x=%d) = %d, want the zero-point 7", i, y, x, v)
			}
		}
	}
	a.Reshape(1, 2, 2, 8, 3) // changed: refilled, old bytes gone
	for i, v := range a.Data {
		if v != 3 {
			t.Fatalf("after reshape byte %d = %d, want 3", i, v)
		}
	}
}
