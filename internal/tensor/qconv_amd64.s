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
