//go:build amd64

// AVX2 int8 convolution backend. The hot loop is convGroupU8S8AVX2 in
// qconv_amd64.s: VPBROADCASTD copies four consecutive activation bytes
// into all eight dword lanes, VPMADDUBSW multiplies them against eight
// output channels' matching four signed weight bytes (one 32-byte load of
// the packed layout) and pair-sums into signed words, VPMADDWD widens
// those into one dword per output channel — 32 multiply-adds in two
// instructions, every lane one output channel's running sum, no
// horizontal reduction anywhere. The scheme's 7-bit activation domain
// ([0, 127]) is what makes this exact: VPMADDUBSW saturates its word sums
// at ±32767, and 2·127·128 = 32512 never reaches that, so the backend is
// bit-identical to the scalar reference (TestInt8ConvConformance).
//
// The requantization epilogue that follows the sums has its own kernel,
// requantGroupsAVX2 — eight lanes of one pixel per step, constants from
// the layer's RequantTable — bit-identical to RequantClampRow
// (TestRequantRowConformance).

package tensor

import "fmt"

// convGroupU8S8AVX2 runs Int8Ops.ConvU8S8 for one group of eight output
// channels: acc and w point at the group's first lane, and ocStep =
// ocPad·4 is the byte distance both between consecutive 4-tap weight
// groups and between consecutive pixels' accumulators. runs ≥ 1, runLen a
// multiple of 4 and ≥ 4. Implemented in qconv_amd64.s.
//
//go:noescape
func convGroupU8S8AVX2(acc *int32, x *uint8, w *byte, npx, pxStride, runs, runLen, runStride, ocStep int, add bool)

// cpuid and xgetbv are tiny assembly shims over the identically-named
// instructions (qconv_amd64.s).
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

// hasAVX2 reports whether both the CPU and the OS support AVX2 + YMM
// state; detected once at init.
var hasAVX2 = detectAVX2()

func detectAVX2() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 { // XMM and YMM state OS-enabled
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0 // AVX2
}

func convU8S8AVX2(acc []int32, x []uint8, w []byte, npx, pxStride, runs, runLen, runStride, ocPad int, add bool) {
	if npx == 0 {
		return
	}
	if runLen%4 != 0 || ocPad%8 != 0 {
		panic(fmt.Sprintf("tensor: ConvU8S8 needs runLen %% 4 == 0 and ocPad %% 8 == 0, got %d and %d", runLen, ocPad))
	}
	if runs*runLen == 0 {
		if !add {
			clear(acc[:npx*ocPad])
		}
		return
	}
	// The assembly does no bounds checks: touch the last element each
	// operand reaches so a short slice panics here instead.
	_ = acc[npx*ocPad-1]
	_ = x[(npx-1)*pxStride+(runs-1)*runStride+runLen-1]
	_ = w[runs*runLen*ocPad-1]
	for g := 0; g < ocPad; g += 8 {
		convGroupU8S8AVX2(&acc[g], &x[0], &w[g*4], npx, pxStride, runs, runLen, runStride, ocPad*4, add)
	}
}

// requantGroupsAVX2 runs Int8Ops.RequantRow over the first groups·8 lanes
// of a row of npx ≥ 1 pixels: tab points at groups·requantGroupWords
// words of RequantTable.groups, dstStep is in bytes and accStep in int32s.
// groups ≥ 1. Implemented in qconv_amd64.s.
//
//go:noescape
func requantGroupsAVX2(dst *uint8, dstStep int, acc *int32, accStep, npx int, tab *uint64, groups int, z uint32)

// requantRowAVX2 sends the full groups of eight lanes to the assembly and
// the len%8 tail lanes to the scalar loop.
func requantRowAVX2(dst []uint8, dstStep int, acc []int32, accStep, npx int, t *RequantTable, z uint8) {
	if npx == 0 {
		return
	}
	full := len(t.lanes) &^ 7
	if full > 0 {
		// The assembly does no bounds checks: touch the last element it
		// reaches on either side so a short slice panics here instead.
		_ = acc[(npx-1)*accStep+full-1]
		_ = dst[(npx-1)*dstStep+full-1]
		requantGroupsAVX2(&dst[0], dstStep, &acc[0], accStep, npx, &t.groups[0], full/8, uint32(z))
	}
	if full < len(t.lanes) {
		RequantClampRow(dst[full:], dstStep, acc[full:], accStep, npx, t.lanes[full:], z)
	}
}

func init() {
	RegisterInt8(&Int8Ops{
		Name:       "avx2",
		Priority:   100,
		Available:  func() bool { return hasAVX2 },
		ConvU8S8:   convU8S8AVX2,
		RequantRow: requantRowAVX2,
	})
}
