// Post-training quantization primitives: the affine maps between float
// tensors and the int8/uint8 domains the quantized inference path computes
// in, and the fixed-point requantization arithmetic that keeps that path
// fully integer (and therefore bit-deterministic across hosts, backends,
// and worker counts).
//
// Scheme (the "int8 rung" of the precision ladder, ARCHITECTURE.md):
//
//   - Weights: per-output-channel symmetric int8. Channel oc of a weight
//     matrix with row max-abs A quantizes with scale s = A/QuantMax, so
//     w ≈ s·wq with wq ∈ [−127, 127]. Symmetry (no zero-point) keeps the
//     GEMM a plain integer product.
//   - Activations: uint8 restricted to [0, ActMax] = [0, 127] — one bit
//     below full u8 range, chosen so the AVX2 VPMADDUBSW kernel's s16
//     pair-sums can never saturate (2·127·127 = 32258 < 32767 ⇒ exact).
//     An activation tensor with calibrated range [lo, hi] maps through
//     x ≈ s·(q − z): post-ReLU tensors use z = 0, s = hi/ActMax; signed
//     tensors (up-conv outputs) use an affine zero-point.
//   - Accumulation: int32, exact. A k-tap dot of u8∈[0,127] against
//     s8∈[−127,127] is bounded by k·127·127, so any k ≤
//     Int8AccumBoundTaps is overflow-free; layers assert this.
//   - Requantization: per-output-channel fixed-point multiplier (m, shift)
//     with m normalized to [2³⁰, 2³¹), applied in int64 with
//     round-half-away-from-zero. No float touches the hot path.
//
// Error model, documented here and property-tested in quant_test.go: the
// quantization step ("ULP") of a channel with scale s is s itself, and for
// any x inside the calibrated range |dequant(quant(x)) − x| ≤ s/2 + eps
// where eps covers the float rounding of the scale computation — see
// QuantRoundTripBound.

package tensor

import (
	"fmt"
	"math"
	"slices"

	"seaice/internal/pool"
)

const (
	// QuantMax is the largest quantized magnitude on both sides of the
	// product: weights span [−QuantMax, QuantMax], activations
	// [0, QuantMax].
	QuantMax = 127

	// Int8AccumBoundTaps is the largest dot-product length k for which
	// the int32 accumulator provably cannot overflow:
	// k·127·127 ≤ 2³¹−1 ⇒ k ≤ 133152. The deepest paper-config layer
	// needs k = 9·1024 = 9216, three orders of magnitude inside the
	// bound; quantized layer constructors reject anything larger.
	Int8AccumBoundTaps = (1<<31 - 1) / (QuantMax * QuantMax)
)

// ActQuant is the affine quantization of one activation tensor:
// x ≈ Scale·(q − Zero) with q ∈ [0, QuantMax]. Post-ReLU tensors have
// Zero = 0; tensors that can go negative (up-conv outputs) get a nonzero
// zero-point so their range still lands in the unsigned domain.
type ActQuant struct {
	Scale float64
	Zero  uint8
}

// ActParams derives the activation quantization for a calibrated value
// range [lo, hi]. Degenerate ranges (everything ≤ 0, or hi == lo) still
// produce a valid positive scale so downstream division is safe.
func ActParams(lo, hi float64) ActQuant {
	if lo > 0 {
		lo = 0 // the representable range always includes exact zero
	}
	if hi < lo {
		hi = lo
	}
	span := hi - lo
	if span <= 0 || math.IsNaN(span) || math.IsInf(span, 0) {
		return ActQuant{Scale: 1.0 / QuantMax}
	}
	s := span / QuantMax
	z := int(math.Round(-lo / s))
	if z < 0 {
		z = 0
	} else if z > QuantMax {
		z = QuantMax
	}
	return ActQuant{Scale: s, Zero: uint8(z)}
}

// Quantize maps one float value into the tensor's uint8 domain,
// round-half-away-from-zero, clamped to [0, QuantMax].
func (a ActQuant) Quantize(x float64) uint8 {
	q := math.Round(x/a.Scale) + float64(a.Zero)
	if q < 0 {
		return 0
	}
	if q > QuantMax {
		return QuantMax
	}
	return uint8(q)
}

// Dequantize maps a quantized value back to float.
func (a ActQuant) Dequantize(q uint8) float64 {
	return a.Scale * (float64(q) - float64(a.Zero))
}

// QuantRoundTripBound is the documented per-channel error bound the
// round-trip property test asserts: for x within the calibrated range of
// a channel with quantization step (scale) s,
//
//	|dequant(quant(x)) − x| ≤ s · (1/2 + 2⁻⁴³)
//
// Half a quantization step is the real-arithmetic bound; the s·2⁻⁴³ term
// covers float64 rounding. The quantities involved (x, s·(q−z)) are as
// large as QuantMax·s, so their individual rounding errors reach
// ~127·s·2⁻⁵² ≈ s·2⁻⁴⁵ — and near the range edges they cancel against a
// result of order s/2, where that absolute error is NOT small relative
// to the result. 2⁻⁴³ leaves a 4× margin over the worst compounding.
func QuantRoundTripBound(scale float64) float64 {
	return scale * (0.5 + 0x1p-43)
}

// QuantizeActs quantizes src through a into dst (same length), splitting
// rows across the shared pool. Each element is independent, so the result
// is bit-identical at any worker count — the property test runs it at
// 1/3/4 workers and byte-compares.
func QuantizeActs(dst []uint8, src []float64, a ActQuant) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("tensor: QuantizeActs length mismatch %d vs %d", len(dst), len(src)))
	}
	pool.Shared().MustMapRanges(len(src), 4096, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			dst[i] = a.Quantize(src[i])
		}
	})
}

// DequantizeActs maps dst[i] = a.Dequantize(src[i]); the parallel inverse
// of QuantizeActs with the same worker-count-independence guarantee.
func DequantizeActs(dst []float64, src []uint8, a ActQuant) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("tensor: DequantizeActs length mismatch %d vs %d", len(dst), len(src)))
	}
	pool.Shared().MustMapRanges(len(src), 4096, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			dst[i] = a.Dequantize(src[i])
		}
	})
}

// QuantizeWeightsPerChannel quantizes a row-major (rows × k) float weight
// matrix symmetrically per row (output channel): row r gets scale
// scales[r] = maxAbs(row)/QuantMax and q[r·k+i] = round(w[r·k+i]/scales[r]).
// An all-zero row gets scale 1 (its quantized row is all zeros either
// way). Rows are independent and each is processed serially, so the
// result is bit-identical at any worker count.
func QuantizeWeightsPerChannel(w []float64, rows, k int) (q []int8, scales []float64) {
	if len(w) != rows*k {
		panic(fmt.Sprintf("tensor: QuantizeWeightsPerChannel %d values for %d×%d", len(w), rows, k))
	}
	q = make([]int8, rows*k)
	scales = make([]float64, rows)
	pool.Shared().MustMapRanges(rows, 1, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			row := w[r*k : (r+1)*k]
			maxAbs := 0.0
			for _, v := range row {
				if a := math.Abs(v); a > maxAbs {
					maxAbs = a
				}
			}
			s := 1.0
			if maxAbs > 0 {
				s = maxAbs / QuantMax
			}
			scales[r] = s
			qrow := q[r*k : (r+1)*k]
			for i, v := range row {
				qv := math.Round(v / s)
				if qv > QuantMax {
					qv = QuantMax
				} else if qv < -QuantMax {
					qv = -QuantMax
				}
				qrow[i] = int8(qv)
			}
		}
	})
	return q, scales
}

// Requant is one output channel's fixed-point requantization: the real
// multiplier M = s_in·s_w/s_out encoded as M = m·2⁻ᵉ with m ∈ [2³⁰, 2³¹)
// so that Apply computes round(v·M) in pure int64 arithmetic.
type Requant struct {
	M     int32
	Shift uint8
}

// NewRequant encodes the real multiplier M ∈ (0, 1] as fixed point. The
// quantized stack always has M ≤ 1 (the output scale absorbs at least the
// input magnitude); multipliers so small they vanish at int32 precision
// round to zero output, which the encoding handles by saturating Shift.
func NewRequant(M float64) Requant {
	r, err := NewRequantChecked(M)
	if err != nil {
		panic(err.Error())
	}
	return r
}

// NewRequantChecked is NewRequant for a multiplier derived from untrusted
// state, such as a checkpoint's activation scales: it returns an error
// where NewRequant panics.
func NewRequantChecked(M float64) (Requant, error) {
	if !(M > 0) || math.IsInf(M, 0) {
		return Requant{}, fmt.Errorf("tensor: requant multiplier %v out of (0, +inf)", M)
	}
	frac, exp := math.Frexp(M) // M = frac·2^exp, frac ∈ [0.5, 1)
	m := int64(math.Round(frac * (1 << 31)))
	if m == 1<<31 { // frac rounded up to exactly 1.0
		m >>= 1
		exp++
	}
	// Apply computes (v·m) >> shift, so shift = 31 − exp.
	shift := 31 - exp
	if shift < 1 {
		return Requant{}, fmt.Errorf("tensor: requant multiplier %v ≥ 2³⁰ unsupported", M)
	}
	for shift > 62 { // too small to matter: renormalize m toward zero
		m >>= 1
		shift--
		if m == 0 {
			shift = 62
			break
		}
	}
	return Requant{M: int32(m), Shift: uint8(shift)}, nil
}

// Apply computes round(v·M) with round-half-up in exact int64 arithmetic:
// (v·m + 2^(shift−1)) >> shift. Accumulators are bounded by
// Int8AccumBoundTaps·127·127 < 2³¹ and m < 2³¹, so the product fits int64
// with bits to spare.
func (r Requant) Apply(v int32) int32 {
	p := int64(v)*int64(r.M) + 1<<(r.Shift-1)
	return int32(p >> r.Shift)
}

// RequantLane is one output channel's epilogue — its bias and Requant —
// laid out the way RequantClampRow consumes it, with the rounding term
// 2^(Shift−1) precomputed.
type RequantLane struct {
	m, round int64
	bias     int32
	shift    uint8
}

// NewRequantLane pairs a channel's accumulator bias with its multiplier.
// r.Shift must lie in NewRequant's range [1, 62]: the vector epilogue's
// logical shift is only exact there (see requantGroupWords).
func NewRequantLane(bias int32, r Requant) RequantLane {
	if r.Shift < 1 || r.Shift > 62 {
		panic(fmt.Sprintf("tensor: requant shift %d outside [1, 62]", r.Shift))
	}
	return RequantLane{m: int64(r.M), round: 1 << (r.Shift - 1), bias: bias, shift: r.Shift}
}

// RequantClampRow is the scalar form of the quantized layers' epilogue
// over a row of npx pixels — the "ref" backend's Int8Ops.RequantRow, and
// the loop SIMD backends finish a row's tail lanes with:
// dst[p·dstStep+c] = RequantClamp(acc[p·accStep+c]+bias_c, r_c, z)
// for every lane c. Pixel-major on both sides, so a kernel's accumulator
// row is read and an NHWC output row written contiguously. The int32 sum
// acc+bias wraps exactly as the scalar form's does.
func RequantClampRow(dst []uint8, dstStep int, acc []int32, accStep, npx int, lanes []RequantLane, z uint8) {
	zz := int32(z)
	for p := 0; p < npx; p++ {
		a := acc[p*accStep:][:len(lanes)]
		d := dst[p*dstStep:][:len(lanes)]
		for c := range lanes {
			l := &lanes[c]
			// &63 is an identity (Shift ≤ 62) that spares the loop the
			// oversize-shift guard; min/max compile to conditional
			// moves — about half of all pre-ReLU sums are negative,
			// which a branch would mispredict.
			y := int32((int64(a[c]+l.bias)*l.m+l.round)>>(l.shift&63)) + zz
			d[c] = uint8(min(max(y, 0), QuantMax))
		}
	}
}

// RequantTable is the epilogue of one group of output channels that are
// requantized together (a QConv's channels, one tap of a QConvT), laid out
// once at layer construction for every backend's Int8Ops.RequantRow: the
// scalar lanes, and for each full group of eight of them the constants an
// eight-lane vector kernel keeps in registers.
type RequantTable struct {
	lanes []RequantLane
	// groups holds requantGroupWords uint64 per full group of eight
	// lanes, nine 32-byte vectors in this order: the eight biases (two
	// int32 per word), then multiplier, round+2⁶², shift and 2⁶²≫shift,
	// each as the four even lanes' qwords followed by the four odd lanes'.
	groups []uint64
}

// requantGroupWords is the size of one eight-lane group of
// RequantTable.groups. The 2⁶² terms are what let a kernel without a
// 64-bit arithmetic right shift (AVX2) divide exactly: with v = acc+bias
// and p = v·m + round, |p| < 2⁶²+2⁶¹, so p+2⁶² is non-negative and a
// logical shift floors it; 2⁶² is a multiple of 2^shift for every shift ≤
// 62, so floor((p+2⁶²)/2^s) − 2⁶²/2^s = floor(p/2^s) — the scalar form's
// arithmetic shift, of which both keep the low 32 bits.
const requantGroupWords = 9 * 4

// NewRequantTable lays out the lanes of one requantization group.
func NewRequantTable(lanes []RequantLane) *RequantTable {
	t := &RequantTable{lanes: slices.Clone(lanes), groups: make([]uint64, len(lanes)/8*requantGroupWords)}
	for g := 0; g+8 <= len(lanes); g += 8 {
		w := t.groups[g/8*requantGroupWords:][:requantGroupWords]
		for i, l := range lanes[g : g+8] {
			w[i/2] |= uint64(uint32(l.bias)) << (i % 2 * 32)
			q := 4 + i%2*4 + i/2 // even lanes' qwords, then odd lanes'
			w[q] = uint64(l.m)
			w[q+8] = uint64(l.round) + 1<<62
			w[q+16] = uint64(l.shift)
			w[q+24] = 1 << 62 >> l.shift
		}
	}
	return t
}

// requantRowRef is Int8Ops.RequantRow one scalar lane at a time.
func requantRowRef(dst []uint8, dstStep int, acc []int32, accStep, npx int, t *RequantTable, z uint8) {
	RequantClampRow(dst, dstStep, acc, accStep, npx, t.lanes, z)
}

// RequantClamp applies r and clamps into the activation domain
// [0, QuantMax] around zero-point z — the fused requantize+ReLU every
// quantized conv output passes through (for post-ReLU tensors z = 0 and
// the lower clamp IS the ReLU).
func RequantClamp(v int32, r Requant, z uint8) uint8 {
	y := r.Apply(v) + int32(z)
	if y < 0 {
		return 0
	}
	if y > QuantMax {
		return QuantMax
	}
	return uint8(y)
}
