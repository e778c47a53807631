//go:build amd64

#include "textflag.h"

// One 4-tap step of one pixel: broadcast the pixel's four activation
// bytes, multiply against the eight channels' weights in Y4, widen the
// word pair sums to one dword per channel, accumulate.
//   VPMADDUBSW  u8(x)·s8(w) → 16 × s16 pair sums (exact: acts ≤ 127)
//   VPMADDWD    s16 × 1     → 8 × s32, one per output channel
#define TAPS4(xmem, tmp, acc) \
	VPBROADCASTD xmem, tmp      \
	VPMADDUBSW   Y4, tmp, tmp   \
	VPMADDWD     Y15, tmp, tmp  \
	VPADDD       tmp, acc, acc

// func convGroupU8S8AVX2(acc *int32, x *uint8, w *byte, npx, pxStride, runs, runLen, runStride, ocStep int, add bool)
//
// Int8Ops.ConvU8S8 for one group of eight output channels, one channel
// per dword lane. Pixels go four at a time (Y0–Y3 their accumulators, each
// 32-byte weight load shared by the four), then one at a time; per pixel
// block the weight cursor walks the packed groups once while the
// activation cursor restarts at every run. Accumulators start at zero or,
// with add, at acc's values, and are stored ocStep bytes apart.
TEXT ·convGroupU8S8AVX2(SB), NOSPLIT, $0-73
	MOVQ acc+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ npx+24(FP), CX
	MOVQ pxStride+32(FP), R8
	MOVQ runStride+56(FP), R10
	MOVQ ocStep+64(FP), R11
	LEAQ (R8)(R8*2), R9      // 3·pxStride
	LEAQ (R11)(R11*2), DX    // 3·ocStep

	VPCMPEQW Y15, Y15, Y15   // all-ones words …
	VPSRLW   $15, Y15, Y15   // … → sixteen words of 1 for VPMADDWD

block4:
	CMPQ CX, $4
	JLT  block1
	CMPB add+72(FP), $0
	JNE  load4
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	JMP  runs4

load4:
	VMOVDQU (DI), Y0
	VMOVDQU (DI)(R11*1), Y1
	VMOVDQU (DI)(R11*2), Y2
	VMOVDQU (DI)(DX*1), Y3

runs4:
	MOVQ w+16(FP), AX        // weight cursor
	MOVQ SI, BX              // run cursor
	MOVQ runs+40(FP), R12

runloop4:
	MOVQ BX, R13             // activation cursor within the run
	MOVQ runLen+48(FP), R14

kloop4:
	VMOVDQU (AX), Y4         // 8 channels × 4 signed weight bytes
	TAPS4((R13), Y5, Y0)
	TAPS4((R13)(R8*1), Y6, Y1)
	TAPS4((R13)(R8*2), Y7, Y2)
	TAPS4((R13)(R9*1), Y8, Y3)
	ADDQ $4, R13
	ADDQ R11, AX
	SUBQ $4, R14
	JNZ  kloop4

	ADDQ R10, BX
	DECQ R12
	JNZ  runloop4

	VMOVDQU Y0, (DI)
	VMOVDQU Y1, (DI)(R11*1)
	VMOVDQU Y2, (DI)(R11*2)
	VMOVDQU Y3, (DI)(DX*1)
	LEAQ    (DI)(R11*4), DI
	LEAQ    (SI)(R8*4), SI
	SUBQ    $4, CX
	JMP     block4

block1:
	TESTQ CX, CX
	JLE   done
	VPXOR Y0, Y0, Y0
	CMPB  add+72(FP), $0
	JEQ   runs1
	VMOVDQU (DI), Y0

runs1:
	MOVQ w+16(FP), AX
	MOVQ SI, BX
	MOVQ runs+40(FP), R12

runloop1:
	MOVQ BX, R13
	MOVQ runLen+48(FP), R14

kloop1:
	VMOVDQU (AX), Y4
	TAPS4((R13), Y5, Y0)
	ADDQ $4, R13
	ADDQ R11, AX
	SUBQ $4, R14
	JNZ  kloop1

	ADDQ R10, BX
	DECQ R12
	JNZ  runloop1

	VMOVDQU Y0, (DI)
	ADDQ    R11, DI
	ADDQ    R8, SI
	DECQ    CX
	JMP     block1

done:
	VZEROUPPER
	RET

// func requantGroupsAVX2(dst *uint8, dstStep int, acc *int32, accStep, npx int, tab *uint64, groups int, z uint32)
//
// Int8Ops.RequantRow for `groups` full groups of eight lanes, one lane per
// dword. Per group the nine constant vectors of RequantTable.groups stay
// in registers while the pixel loop walks the row; per pixel the eight
// sums split into even and odd lanes (VPMULDQ multiplies the low dword of
// each qword), go through multiply, round, shift as qwords and are merged
// back into lane order before the zero-point and the clamp:
//   VPADDD    acc + bias, wrapping like the scalar int32 sum
//   VPMULDQ   signed 32×32 → 64, even lanes / odd lanes (VPSRLQ $32)
//   VPADDQ    + round + 2⁶²  (non-negative from here on)
//   VPSRLVQ   logical shift by the lane's own count …
//   VPSUBQ    … − 2⁶²≫shift = the arithmetic shift's result (low dword)
//   VPMINSD   upper clamp at 127; the unsigned-saturating packs clamp
//             negatives to 0 and narrow to one byte per lane
// Exactly eight bytes are stored per pixel and group.
TEXT ·requantGroupsAVX2(SB), NOSPLIT, $0-60
	MOVQ dst+0(FP), DI
	MOVQ dstStep+8(FP), R8
	MOVQ acc+16(FP), SI
	MOVQ accStep+24(FP), R10
	MOVQ tab+40(FP), R9
	MOVQ groups+48(FP), R11
	SHLQ $2, R10             // accumulator stride in bytes

	MOVL z+56(FP), AX
	VMOVD AX, X14
	VPBROADCASTD X14, Y14
	VPCMPEQD Y15, Y15, Y15   // all-ones dwords …
	VPSRLD   $25, Y15, Y15   // … → eight dwords of 127

rqgroup:
	VMOVDQU 0(R9), Y6        // bias
	VMOVDQU 32(R9), Y7       // multiplier, even lanes
	VMOVDQU 64(R9), Y8       //             odd lanes
	VMOVDQU 96(R9), Y9       // round + 2⁶²
	VMOVDQU 128(R9), Y10
	VMOVDQU 160(R9), Y11     // shift
	VMOVDQU 192(R9), Y12
	VMOVDQU 224(R9), Y13     // 2⁶² ≫ shift
	VMOVDQU 256(R9), Y5
	MOVQ DI, R12             // dst cursor
	MOVQ SI, R13             // acc cursor
	MOVQ npx+32(FP), CX

rqpixel:
	VMOVDQU   (R13), Y0
	VPADDD    Y6, Y0, Y0
	VPSRLQ    $32, Y0, Y1
	VPMULDQ   Y7, Y0, Y0
	VPMULDQ   Y8, Y1, Y1
	VPADDQ    Y9, Y0, Y0
	VPADDQ    Y10, Y1, Y1
	VPSRLVQ   Y11, Y0, Y0
	VPSRLVQ   Y12, Y1, Y1
	VPSUBQ    Y13, Y0, Y0
	VPSUBQ    Y5, Y1, Y1
	VPSLLQ    $32, Y1, Y1
	VPBLENDD  $0xAA, Y1, Y0, Y0  // odd dwords from Y1
	VPADDD    Y14, Y0, Y0
	VPMINSD   Y15, Y0, Y0
	VPACKUSDW Y0, Y0, Y0         // per 128-bit half: lanes 0–3 | lanes 4–7
	VPACKUSWB Y0, Y0, Y0
	VEXTRACTI128 $1, Y0, X1
	VPUNPCKLDQ   X1, X0, X0      // bytes of lanes 0–3, then 4–7
	VMOVQ     X0, (R12)
	ADDQ R8, R12
	ADDQ R10, R13
	DECQ CX
	JNZ  rqpixel

	ADDQ $8, DI
	ADDQ $32, SI
	ADDQ $288, R9
	DECQ R11
	JNZ  rqgroup

	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
