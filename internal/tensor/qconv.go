// Portable int8 convolution backends and the shared weight packing.
// "ref" is the obviously-correct scalar kernel every other backend is
// equality-tested against; "swar" is a pure-Go kernel that carries two
// output channels in the 32-bit lanes of one uint64 so a single 64-bit
// multiply retires two multiply-accumulates. Both compute the exact
// integer sums defined by Int8Ops.ConvU8S8, so they are bit-identical to
// each other and to the AVX2 backend by construction.

package tensor

import "encoding/binary"

// Int8LanePad rounds an output-channel count up to the kernels' lane
// group: packed weights and accumulator rows are padded to 8 channels
// (the eight dword lanes of one YMM register); pad channels carry zero
// weights.
func Int8LanePad(outC int) int { return (outC + 7) &^ 7 }

// PackInt8Weights lays a row-major (rows × k) weight matrix out the way
// Int8Ops.ConvU8S8 reads it: [⌈k/4⌉][Int8LanePad(rows)][4], i.e. for every
// group of four consecutive taps, every output channel's four bytes side
// by side. Tap and channel padding is zero, which contributes nothing.
// The result holds the int8 values' two's-complement bytes, so the
// portable kernels can read several taps in one wide load.
func PackInt8Weights(w []int8, rows, k int) []byte {
	ocPad := Int8LanePad(rows)
	packed := make([]byte, (k+3)/4*ocPad*4)
	for r := 0; r < rows; r++ {
		for i, v := range w[r*k : (r+1)*k] {
			packed[(i/4*ocPad+r)*4+i%4] = byte(v)
		}
	}
	return packed
}

// GemmU8S8 computes out[r·npx+c] = Σ_{i<k} int32(w[r·k+i])·int32(x[c·k+i])
// for r in [0,rows), c in [0,npx): row-major int8 weights against
// column-major uint8 activations (each column k contiguous bytes), exact
// in int32 under the same bound as ConvU8S8. Overwrites out[0:rows·npx].
// It is a backend-independent adapter over the one integer kernel — pack
// the weights, run the columns as npx one-run pixels, transpose — kept for
// callers that hold a plain matrix; the quantized layers pre-pack and
// call ConvU8S8 directly.
func (o *Int8Ops) GemmU8S8(w []int8, x []uint8, rows, k, npx int, out []int32) {
	if rows == 0 || npx == 0 {
		return
	}
	k4 := (k + 3) &^ 3
	if k4 != k { // columns must be whole 4-byte groups: re-stride, zero fill
		padded := make([]uint8, npx*k4)
		for c := 0; c < npx; c++ {
			copy(padded[c*k4:], x[c*k:(c+1)*k])
		}
		x = padded
	}
	ocPad := Int8LanePad(rows)
	acc := make([]int32, npx*ocPad)
	o.ConvU8S8(acc, x, PackInt8Weights(w, rows, k), npx, k4, 1, k4, 0, ocPad, false)
	for r := 0; r < rows; r++ {
		orow := out[r*npx : (r+1)*npx]
		for c := range orow {
			orow[c] = acc[c*ocPad+r]
		}
	}
}

// convU8S8Ref is Int8Ops.ConvU8S8 one scalar multiply at a time.
func convU8S8Ref(acc []int32, x []uint8, w []byte, npx, pxStride, runs, runLen, runStride, ocPad int, add bool) {
	for p := 0; p < npx; p++ {
		a := acc[p*ocPad : (p+1)*ocPad]
		if !add {
			clear(a)
		}
		for r := 0; r < runs; r++ {
			xr := x[p*pxStride+r*runStride:][:runLen]
			wr := w[r*runLen*ocPad:]
			for i, xv := range xr {
				wi := wr[i/4*ocPad*4+i%4:]
				for oc := range a {
					a[oc] += int32(xv) * int32(int8(wi[oc*4]))
				}
			}
		}
	}
}

// swarMaxK bounds the per-call dot length for which the packed lanes
// provably cannot overflow or carry into each other: each 32-bit lane
// accumulates Σ (w+128)·x ≤ k·255·127, which must stay under 2³² — a
// slightly tighter bound than Int8AccumBoundTaps. Longer products fall
// back to the reference kernel (no real layer comes near either bound).
const swarMaxK = (1<<32 - 1) / (255 * QuantMax)

// convU8S8SWAR processes output channels in pairs. One 8-byte load of the
// packed layout holds four taps of two neighbouring channels; XOR 0x80
// biases every byte to unsigned (w+128 ∈ [0, 255]), and tap j's two bytes,
// masked into the 32-bit lanes of a uint64, times the activation byte
// accumulate both channels' biased products in one multiply. The bias is
// removed afterwards with the pixel's activation sum:
// acc_oc = lane_oc − 128·Σx.
func convU8S8SWAR(acc []int32, x []uint8, w []byte, npx, pxStride, runs, runLen, runStride, ocPad int, add bool) {
	if runs*runLen > swarMaxK {
		convU8S8Ref(acc, x, w, npx, pxStride, runs, runLen, runStride, ocPad, add)
		return
	}
	const lanes = 0x000000FF_000000FF
	for p := 0; p < npx; p++ {
		a := acc[p*ocPad : (p+1)*ocPad]
		if !add {
			clear(a)
		}
		var sum int64
		for r := 0; r < runs; r++ {
			for _, v := range x[p*pxStride+r*runStride:][:runLen] {
				sum += int64(v)
			}
		}
		bias := 128 * sum
		for oc := 0; oc < ocPad; oc += 2 {
			var s uint64
			for r := 0; r < runs; r++ {
				xr := x[p*pxStride+r*runStride:][:runLen]
				wo := r*runLen*ocPad + oc*4
				for i := 0; i+4 <= len(xr); i += 4 {
					q := binary.LittleEndian.Uint64(w[wo+i*ocPad:]) ^ 0x80808080_80808080
					s += (q&lanes)*uint64(xr[i]) + (q>>8&lanes)*uint64(xr[i+1]) +
						(q>>16&lanes)*uint64(xr[i+2]) + (q>>24&lanes)*uint64(xr[i+3])
				}
			}
			a[oc] += int32(int64(uint32(s)) - bias)
			a[oc+1] += int32(int64(s>>32) - bias)
		}
	}
}

func init() {
	RegisterInt8(&Int8Ops{Name: "ref", Priority: 0, ConvU8S8: convU8S8Ref, RequantRow: requantRowRef})
	RegisterInt8(&Int8Ops{Name: "swar", Priority: 10, ConvU8S8: convU8S8SWAR}) // RequantRow: ref's
}
