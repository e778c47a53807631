package tensor

import (
	"math"
	"testing"

	"seaice/internal/noise"
	"seaice/internal/pool"
)

// withQuantWorkers runs fn at the worker counts the quantization
// worker-invariance properties are specified for, restoring the default.
func withQuantWorkers(t *testing.T, fn func(workers int)) {
	t.Helper()
	defer pool.SetSharedWorkers(0)
	for _, w := range []int{1, 3, 4} {
		pool.SetSharedWorkers(w)
		fn(w)
	}
}

func TestActParams(t *testing.T) {
	// Plain post-ReLU range: zero-point 0, scale hi/127.
	a := ActParams(0, 6.35)
	if a.Zero != 0 {
		t.Fatalf("post-ReLU zero-point %d, want 0", a.Zero)
	}
	if math.Abs(a.Scale-6.35/QuantMax) > 1e-15 {
		t.Fatalf("scale %g, want %g", a.Scale, 6.35/QuantMax)
	}
	// Signed range gets an interior zero-point, and zero stays exactly
	// representable: dequantize(Zero) == 0 by construction.
	a = ActParams(-2, 2)
	if a.Zero == 0 || a.Zero == QuantMax {
		t.Fatalf("symmetric range zero-point %d should be interior", a.Zero)
	}
	if got := dequantize(a, a.Zero); got != 0 {
		t.Fatalf("dequantize(Zero) = %g, want exact 0", got)
	}
	// A strictly positive lo is widened to include zero.
	a = ActParams(1.5, 3.0)
	if a.Zero != 0 {
		t.Fatalf("positive-lo range zero-point %d, want 0", a.Zero)
	}
	if math.Abs(a.Scale-3.0/QuantMax) > 1e-15 {
		t.Fatalf("positive-lo scale %g, want %g", a.Scale, 3.0/QuantMax)
	}
	// Degenerate ranges still produce a usable positive scale.
	for _, r := range [][2]float64{{0, 0}, {-0, 0}, {5, 2}, {math.NaN(), 3}, {0, math.Inf(1)}} {
		a := ActParams(r[0], r[1])
		if !(a.Scale > 0) || math.IsInf(a.Scale, 0) {
			t.Fatalf("ActParams(%v, %v) scale %g not positive finite", r[0], r[1], a.Scale)
		}
	}
}

// quantize maps one float value into a's uint8 domain,
// round-half-away-from-zero, clamped to [0, QuantMax]: the affine grid
// ActParams chooses, as a definition.
func quantize(a ActQuant, x float64) uint8 {
	q := math.Round(x/a.Scale) + float64(a.Zero)
	if q < 0 {
		return 0
	}
	if q > QuantMax {
		return QuantMax
	}
	return uint8(q)
}

// dequantize maps a quantized value back to float.
func dequantize(a ActQuant, q uint8) float64 {
	return a.Scale * (float64(q) - float64(a.Zero))
}

// roundTripBound is the documented per-channel error bound of quant.go's
// error model: for x within the calibrated range of a channel with
// quantization step (scale) s,
//
//	|dequant(quant(x)) − x| ≤ s · (1/2 + 2⁻⁴³)
//
// Half a quantization step is the real-arithmetic bound; the s·2⁻⁴³ term
// covers float64 rounding. The quantities involved (x, s·(q−z)) are as
// large as QuantMax·s, so their individual rounding errors reach
// ~127·s·2⁻⁵² ≈ s·2⁻⁴⁵ — and near the range edges they cancel against a
// result of order s/2, where that absolute error is NOT small relative
// to the result. 2⁻⁴³ leaves a 4× margin over the worst compounding.
func roundTripBound(scale float64) float64 {
	return scale * (0.5 + 0x1p-43)
}

// TestQuantRoundTripProperty is the documented-ULP property test: for
// random tensors and calibrated ranges, |dequant(quant(x)) − x| must stay
// within roundTripBound(scale) for every in-range x.
func TestQuantRoundTripProperty(t *testing.T) {
	rng := noise.NewRNG(1701, 0x9a77)
	ranges := [][2]float64{
		{0, 1}, {0, 11.25}, {-3, 5}, {-8, 0.5}, {0.2, 7}, {-1e-3, 1e-3},
	}
	const n = 9001
	for _, r := range ranges {
		lo, hi := r[0], r[1]
		a := ActParams(lo, hi)
		bound := roundTripBound(a.Scale)

		src := make([]float64, n)
		for i := range src {
			src[i] = lo + (hi-lo)*rng.Float64()
		}
		src[0], src[1], src[2] = lo, hi, 0 // the range edges and exact zero

		for _, x := range src {
			if got := dequantize(a, quantize(a, x)); math.Abs(got-x) > bound {
				t.Fatalf("range [%g,%g]: x=%g round-trips to %g, error %g > bound %g",
					lo, hi, x, got, math.Abs(got-x), bound)
			}
		}
	}
}

// TestQuantizeWeightsPerChannel checks the per-channel scheme: each row's
// scale is maxAbs/127, the symmetric round-trip error is within half a
// step, and the result is bit-identical at any worker count.
func TestQuantizeWeightsPerChannel(t *testing.T) {
	rng := noise.NewRNG(8, 0x5ca1e)
	const rows, k = 37, 61
	w := make([]float64, rows*k)
	for i := range w {
		w[i] = (rng.Float64() - 0.5) * math.Exp(6*rng.Float64()-3)
	}
	copy(w[3*k:4*k], make([]float64, k)) // one all-zero channel

	var refQ []int8
	var refS []float64
	withQuantWorkers(t, func(workers int) {
		q, scales := QuantizeWeightsPerChannel(w, rows, k)
		if refQ == nil {
			refQ, refS = q, scales
			for r := 0; r < rows; r++ {
				row := w[r*k : (r+1)*k]
				maxAbs := 0.0
				for _, v := range row {
					maxAbs = math.Max(maxAbs, math.Abs(v))
				}
				wantS := 1.0
				if maxAbs > 0 {
					wantS = maxAbs / QuantMax
				}
				if scales[r] != wantS {
					t.Fatalf("row %d scale %g, want %g", r, scales[r], wantS)
				}
				for i, v := range row {
					got := scales[r] * float64(q[r*k+i])
					if math.Abs(got-v) > roundTripBound(scales[r]) {
						t.Fatalf("row %d tap %d: %g quantizes to %d (%g), error beyond half-step",
							r, i, v, q[r*k+i], got)
					}
				}
			}
			return
		}
		for i := range q {
			if q[i] != refQ[i] {
				t.Fatalf("workers=%d: quantized weight %d differs", workers, i)
			}
		}
		for r := range scales {
			if scales[r] != refS[r] {
				t.Fatalf("workers=%d: scale %d differs", workers, r)
			}
		}
	})
}

// TestRequantMatchesRealMultiplier: the fixed-point encoding must compute
// round(v·M) within one unit over the full accumulator range, for
// multipliers spanning the magnitudes the quantized stack produces.
func TestRequantMatchesRealMultiplier(t *testing.T) {
	rng := noise.NewRNG(99, 0xf1de)
	for trial := 0; trial < 200; trial++ {
		M := math.Exp(-14 * rng.Float64()) // (e⁻¹⁴, 1] ≈ (8.3e-7, 1]
		r := NewRequant(M)
		// The encoding itself must be a faithful rounding of M.
		enc := float64(r.M) * math.Exp2(-float64(r.Shift))
		if rel := math.Abs(enc-M) / M; rel > 1.0/(1<<30) {
			t.Fatalf("M=%g encoded as %g (m=%d shift=%d), rel error %g", M, enc, r.M, r.Shift, rel)
		}
		for i := 0; i < 64; i++ {
			const accMax = Int8AccumBoundTaps * QuantMax * QuantMax
			v := int32(int64(rng.Uint64()%(2*accMax)) - accMax)
			want := math.Round(float64(v) * M)
			got := float64(r.Apply(v))
			if math.Abs(got-want) > 1 {
				t.Fatalf("M=%g v=%d: Apply=%g, round(v·M)=%g", M, v, got, want)
			}
		}
	}
	// Exact cases: powers of two multiply exactly.
	r := NewRequant(0.5)
	for _, v := range []int32{0, 1, 2, 3, -1, -2, -3, 1 << 20} {
		want := int32(math.Floor(float64(v)*0.5 + 0.5)) // round-half-up
		if got := r.Apply(v); got != want {
			t.Fatalf("0.5·%d = %d, want %d", v, got, want)
		}
	}
}

// TestRequantClamp covers the fused clamp: the lower clamp implements
// ReLU at zero-point 0 and re-centers at a nonzero zero-point.
func TestRequantClamp(t *testing.T) {
	r := NewRequant(0.25)
	if got := RequantClamp(-1000, r, 0); got != 0 {
		t.Fatalf("negative accumulator with z=0: %d, want 0 (ReLU)", got)
	}
	if got := RequantClamp(1<<20, r, 0); got != QuantMax {
		t.Fatalf("huge accumulator: %d, want %d", got, QuantMax)
	}
	if got := RequantClamp(8, r, 64); got != 66 {
		t.Fatalf("requant(8)·0.25+64 = %d, want 66", got)
	}
	if got := RequantClamp(-600, r, 64); got != 0 {
		t.Fatalf("deep negative with z=64: %d, want clamp to 0", got)
	}
}

// TestRequantClampRow: the row epilogue is RequantClamp applied lane by
// lane — strides, lane counts short of the accumulator padding, the full
// multiplier range, and an int32 acc+bias that wraps.
func TestRequantClampRow(t *testing.T) {
	rng := noise.NewRNG(7, 0xc1a3)
	for _, sh := range []struct{ lanes, accStep, dstStep, npx int }{
		{3, 8, 4, 5}, {8, 8, 8, 32}, {8, 32, 16, 7}, {64, 64, 64, 4}, {1, 8, 1, 1},
	} {
		bias := make([]int32, sh.lanes)
		req := make([]Requant, sh.lanes)
		lanes := make([]RequantLane, sh.lanes)
		for c := range lanes {
			bias[c] = int32(rng.Uint64())
			if c%2 == 0 {
				bias[c] >>= 12 // realistic magnitudes on every other lane
			}
			req[c] = NewRequant(math.Exp(-14 * rng.Float64()))
			lanes[c] = NewRequantLane(bias[c], req[c])
		}
		acc := make([]int32, sh.npx*sh.accStep)
		for i := range acc {
			acc[i] = int32(rng.Uint64()) >> (rng.Uint64() % 24)
		}
		for _, z := range []uint8{0, 64, QuantMax} {
			dst := make([]uint8, sh.npx*sh.dstStep)
			for i := range dst {
				dst[i] = 0xEE
			}
			RequantClampRow(dst, sh.dstStep, acc, sh.accStep, sh.npx, lanes, z)
			for p := 0; p < sh.npx; p++ {
				for c := 0; c < sh.dstStep; c++ {
					want := uint8(0xEE) // bytes past the lanes are not the epilogue's
					if c < sh.lanes {
						want = RequantClamp(acc[p*sh.accStep+c]+bias[c], req[c], z)
					}
					if got := dst[p*sh.dstStep+c]; got != want {
						t.Fatalf("%+v z=%d pixel %d lane %d: %d, want %d", sh, z, p, c, got, want)
					}
				}
			}
		}
	}
}

// TestRequantRowConformance: every registered int8 backend's RequantRow is
// byte-equal to RequantClamp applied element by element — lane counts on
// both sides of the eight-lane vector group, odd and even pixel counts,
// accumulator rows wider than the lanes, the QConvT scatter's output
// strides, every (lane position, shift 1–62, multiplier kind) combination,
// int32 extremes that make acc+bias wrap, and every kind of zero-point.
// Canary bytes between pixels and after the last lane must survive.
func TestRequantRowConformance(t *testing.T) {
	rng := noise.NewRNG(22, 0x7e9a)
	corners := []int32{0, 1, -1, 1 << 15, -(1 << 15), 1 << 30, -(1 << 30), math.MaxInt32, math.MinInt32}
	draw := func() int32 {
		if i := int(rng.Uint64() % uint64(len(corners)+3)); i < len(corners) {
			return corners[i]
		}
		return int32(rng.Uint64()) >> (rng.Uint64() % 28)
	}
	const canary, slack = 0xEE, 16
	zs := []uint8{0, 9, 77, QuantMax}
	for _, name := range Int8BackendNames() {
		ops := backendByName(t, name)
		if !ops.availableForTest() {
			continue
		}
		for _, nl := range []int{1, 3, 7, 8, 9, 12, 16, 24, 64} {
			accStep, accOff := Int8LanePad(nl)+8, nl%4 // a tap group starts mid-row
			pad4 := (nl + 3) &^ 3
			for _, dstStep := range []int{nl, pad4, 2 * pad4} {
				for npx := 1; npx <= 11; npx++ {
					acc := make([]int32, accOff+npx*accStep)
					dst := make([]uint8, npx*dstStep+slack)
					for base := 0; base < 62*3; base++ {
						req := make([]Requant, nl)
						bias := make([]int32, nl)
						lanes := make([]RequantLane, nl)
						for c := range lanes {
							m := int32(1 << 30)
							switch (base/62 + c) % 3 {
							case 1:
								m = math.MaxInt32
							case 2:
								m |= int32(rng.Uint64() >> 34)
							}
							req[c] = Requant{M: m, Shift: uint8((base+c)%62 + 1)}
							bias[c] = draw()
							lanes[c] = NewRequantLane(bias[c], req[c])
						}
						for i := range acc {
							acc[i] = draw()
						}
						for i := range dst {
							dst[i] = canary
						}
						z := zs[(base+npx)%len(zs)]
						ops.RequantRow(dst, dstStep, acc[accOff:], accStep, npx, NewRequantTable(lanes), z)
						for i, got := range dst {
							want := uint8(canary)
							if p, c := i/dstStep, i%dstStep; p < npx && c < nl {
								want = RequantClamp(acc[accOff+p*accStep+c]+bias[c], req[c], z)
							}
							if got != want {
								t.Fatalf("%s lanes=%d dstStep=%d npx=%d base=%d z=%d: dst[%d] = %d, want %d",
									name, nl, dstStep, npx, base, z, i, got, want)
							}
						}
					}
				}
			}
		}
		// Nothing to do is legal and touches nothing.
		one := NewRequantTable([]RequantLane{NewRequantLane(5, Requant{M: 1 << 30, Shift: 31})})
		dst := []uint8{canary}
		ops.RequantRow(dst, 1, []int32{7}, 1, 0, one, 0)
		ops.RequantRow(dst, 1, []int32{7}, 1, 1, NewRequantTable(nil), 0)
		ops.RequantRow(nil, 8, nil, 8, 0, one, 0)
		if dst[0] != canary {
			t.Fatalf("%s: an empty row or table wrote %d", name, dst[0])
		}
	}
}
