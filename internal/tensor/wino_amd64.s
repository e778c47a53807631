//go:build amd64

#include "textflag.h"

// Stencil constants, broadcast once per call.
DATA winoK<>+0(SB)/4, $0x40000000  // 2
DATA winoK<>+4(SB)/4, $0x40800000  // 4
DATA winoK<>+8(SB)/4, $0x40a00000  // 5
DATA winoK<>+12(SB)/4, $0xc0000000 // -2
DATA winoK<>+16(SB)/4, $0xc0800000 // -4
GLOBL winoK<>(SB), RODATA|NOPTR, $20

// BT4 is nn.bt4Row on eight lanes: d0..d5 in Y0..Y5, constants 2, 4, 5,
// -2, -4 in Y11..Y15; t0..t5 come out in Y9, Y0, Y10, Y7, Y1, Y6. Each
// line is one scalar expression, left to right; 4·d1, 4·d2 and 2·d3 are
// the same rounded values wherever they appear, so they are computed once.
#define BT4 \
	VMULPS Y12, Y1, Y6   \ // 4·d1
	VMULPS Y12, Y2, Y7   \ // 4·d2
	VMULPS Y11, Y3, Y8   \ // 2·d3
	VMULPS Y12, Y0, Y9   \ // t0 = 4·d0 − 5·d2 + d4
	VMULPS Y13, Y2, Y10  \
	VSUBPS Y10, Y9, Y9   \
	VADDPS Y4, Y9, Y9    \
	VMULPS Y15, Y1, Y0   \ // t1 = −4·d1 − 4·d2 + d3 + d4
	VSUBPS Y7, Y0, Y0    \
	VADDPS Y3, Y0, Y0    \
	VADDPS Y4, Y0, Y0    \
	VSUBPS Y7, Y6, Y10   \ // t2 = 4·d1 − 4·d2 − d3 + d4
	VSUBPS Y3, Y10, Y10  \
	VADDPS Y4, Y10, Y10  \
	VMULPS Y14, Y1, Y7   \ // t3 = −2·d1 − d2 + 2·d3 + d4
	VSUBPS Y2, Y7, Y7    \
	VADDPS Y8, Y7, Y7    \
	VADDPS Y4, Y7, Y7    \
	VMULPS Y11, Y1, Y1   \ // t4 = 2·d1 − d2 − 2·d3 + d4
	VSUBPS Y2, Y1, Y1    \
	VSUBPS Y8, Y1, Y1    \
	VADDPS Y4, Y1, Y1    \
	VMULPS Y13, Y3, Y2   \ // t5 = 4·d1 − 5·d3 + d5
	VSUBPS Y2, Y6, Y6    \
	VADDPS Y5, Y6, Y6

// func winoIn4AVX2(v *float32, stride int, d *float32)
//
// Bᵀ·d·B of eight 6×6 windows held lane-minor in d (element k of the
// window at d[8k..8k+7]): the column pass runs BT4 down each of the six
// columns in place, the row pass along each of the six rows, storing
// component 6r+c at v + (6r+c)·stride bytes. No FMA, no shuffle, nothing
// crosses lanes.
TEXT ·winoIn4AVX2(SB), NOSPLIT, $0-24
	MOVQ v+0(FP), DI
	MOVQ stride+8(FP), R8
	MOVQ d+16(FP), SI
	VBROADCASTSS winoK<>+0(SB), Y11
	VBROADCASTSS winoK<>+4(SB), Y12
	VBROADCASTSS winoK<>+8(SB), Y13
	VBROADCASTSS winoK<>+12(SB), Y14
	VBROADCASTSS winoK<>+16(SB), Y15
	LEAQ (R8)(R8*2), R9      // 3·stride
	LEAQ (R8)(R8*4), R10     // 5·stride

	MOVQ SI, AX
	MOVQ $6, CX
	PCALIGN $32
incol:
	VMOVUPS (AX), Y0
	VMOVUPS 192(AX), Y1
	VMOVUPS 384(AX), Y2
	VMOVUPS 576(AX), Y3
	VMOVUPS 768(AX), Y4
	VMOVUPS 960(AX), Y5
	BT4
	VMOVUPS Y9, (AX)
	VMOVUPS Y0, 192(AX)
	VMOVUPS Y10, 384(AX)
	VMOVUPS Y7, 576(AX)
	VMOVUPS Y1, 768(AX)
	VMOVUPS Y6, 960(AX)
	ADDQ $32, AX
	DECQ CX
	JNZ  incol

	MOVQ $6, CX
	PCALIGN $32
inrow:
	VMOVUPS (SI), Y0
	VMOVUPS 32(SI), Y1
	VMOVUPS 64(SI), Y2
	VMOVUPS 96(SI), Y3
	VMOVUPS 128(SI), Y4
	VMOVUPS 160(SI), Y5
	BT4
	VMOVUPS Y9, (DI)
	VMOVUPS Y0, (DI)(R8*1)
	VMOVUPS Y10, (DI)(R8*2)
	VMOVUPS Y7, (DI)(R9*1)
	VMOVUPS Y1, (DI)(R8*4)
	VMOVUPS Y6, (DI)(R10*1)
	ADDQ $192, SI
	LEAQ (DI)(R9*2), DI      // six components on
	DECQ CX
	JNZ  inrow
	VZEROUPPER
	RET
