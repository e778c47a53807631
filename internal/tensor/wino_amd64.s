//go:build amd64

#include "textflag.h"

// Stencil constants, broadcast once per call.
DATA winoK<>+0(SB)/4, $0x40000000  // 2
DATA winoK<>+4(SB)/4, $0x40800000  // 4
DATA winoK<>+8(SB)/4, $0x40a00000  // 5
DATA winoK<>+12(SB)/4, $0xc0000000 // -2
DATA winoK<>+16(SB)/4, $0xc0800000 // -4
DATA winoK<>+20(SB)/4, $0x41000000 // 8
DATA winoK<>+24(SB)/4, $0x40c00000 // 6
DATA winoK<>+28(SB)/4, $0x41400000 // 12
DATA winoK<>+32(SB)/4, $0x41c00000 // 24
DATA winoK<>+36(SB)/4, $0x80000000 // sign bit
GLOBL winoK<>(SB), RODATA|NOPTR, $40

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

// G4 is nn.g4Row on eight lanes: a, b, c in Y0, Y1, Y2, constants 4, 6,
// 12, 24 in Y12..Y15 and the sign bit in Y11; r0..r5 come out in Y3, Y4,
// Y5, Y9, Y6, Y2. Every quotient is a VDIVPS — 1/6, 1/12 and 1/24 are not
// binary fractions, so a reciprocal multiply would round differently — and
// a negation flips the sign bit, as Go's unary minus does. a/24, b/12 and
// c/6 are the same rounded values in r3 and r4, so they are computed once.
#define G4 \
	VDIVPS Y12, Y0, Y3   \ // r0 = a/4
	VADDPS Y1, Y0, Y4    \ // r1 = −(a + b + c)/6
	VADDPS Y2, Y4, Y4    \
	VXORPS Y11, Y4, Y4   \
	VDIVPS Y13, Y4, Y4   \
	VXORPS Y11, Y0, Y5   \ // r2 = (−a + b − c)/6
	VADDPS Y1, Y5, Y5    \
	VSUBPS Y2, Y5, Y5    \
	VDIVPS Y13, Y5, Y5   \
	VDIVPS Y15, Y0, Y6   \ // a/24
	VDIVPS Y14, Y1, Y7   \ // b/12
	VDIVPS Y13, Y2, Y8   \ // c/6
	VADDPS Y7, Y6, Y9    \ // r3 = a/24 + b/12 + c/6
	VADDPS Y8, Y9, Y9    \
	VSUBPS Y7, Y6, Y6    \ // r4 = a/24 − b/12 + c/6
	VADDPS Y8, Y6, Y6

// func winoFilter4AVX2(u *float32, stride int, taps *float32)
//
// G·g·Gᵀ of eight 3×3 filters held lane-minor in taps (tap 3·ky+kx at
// taps[8(3·ky+kx)..]): the column pass runs G4 down each of the three
// columns into the 6×3 block G·g in the frame, the row pass along each of
// its six rows, storing component 6r+c at u + (6r+c)·stride bytes. taps
// is read only.
TEXT ·winoFilter4AVX2(SB), $576-24
	MOVQ u+0(FP), DI
	MOVQ stride+8(FP), R8
	MOVQ taps+16(FP), SI
	VBROADCASTSS winoK<>+36(SB), Y11
	VBROADCASTSS winoK<>+4(SB), Y12
	VBROADCASTSS winoK<>+24(SB), Y13
	VBROADCASTSS winoK<>+28(SB), Y14
	VBROADCASTSS winoK<>+32(SB), Y15
	LEAQ (R8)(R8*2), R9      // 3·stride
	LEAQ (R8)(R8*4), R10     // 5·stride

	MOVQ SP, AX              // G·g: element (r, c) at 96r + 32c
	MOVQ $3, CX
	PCALIGN $32
fcol:
	VMOVUPS (SI), Y0
	VMOVUPS 96(SI), Y1
	VMOVUPS 192(SI), Y2
	G4
	VMOVUPS Y3, (AX)
	VMOVUPS Y4, 96(AX)
	VMOVUPS Y5, 192(AX)
	VMOVUPS Y9, 288(AX)
	VMOVUPS Y6, 384(AX)
	VMOVUPS Y2, 480(AX)
	ADDQ $32, SI
	ADDQ $32, AX
	DECQ CX
	JNZ  fcol

	MOVQ SP, AX
	MOVQ $6, CX
	PCALIGN $32
frow:
	VMOVUPS (AX), Y0
	VMOVUPS 32(AX), Y1
	VMOVUPS 64(AX), Y2
	G4
	VMOVUPS Y3, (DI)
	VMOVUPS Y4, (DI)(R8*1)
	VMOVUPS Y5, (DI)(R8*2)
	VMOVUPS Y9, (DI)(R9*1)
	VMOVUPS Y6, (DI)(R8*4)
	VMOVUPS Y2, (DI)(R10*1)
	ADDQ $96, AX
	LEAQ (DI)(R9*2), DI      // six components on
	DECQ CX
	JNZ  frow
	VZEROUPPER
	RET

// AT4 is nn.at4Row on eight lanes: m0..m5 in Y0..Y5, constants 2, 4, 8 in
// Y13..Y15; y0..y3 come out in Y6, Y8, Y9, Y7. m1 − m2 is the same rounded
// value in y1 and y3, so it is computed once.
#define AT4 \
	VADDPS Y1, Y0, Y6    \ // y0 = m0 + m1 + m2 + m3 + m4
	VADDPS Y2, Y6, Y6    \
	VADDPS Y3, Y6, Y6    \
	VADDPS Y4, Y6, Y6    \
	VSUBPS Y2, Y1, Y7    \ // m1 − m2
	VMULPS Y13, Y3, Y8   \ // y1 = m1 − m2 + 2·m3 − 2·m4
	VADDPS Y8, Y7, Y8    \
	VMULPS Y13, Y4, Y10  \
	VSUBPS Y10, Y8, Y8   \
	VADDPS Y2, Y1, Y9    \ // y2 = m1 + m2 + 4·m3 + 4·m4
	VMULPS Y14, Y3, Y10  \
	VADDPS Y10, Y9, Y9   \
	VMULPS Y14, Y4, Y10  \
	VADDPS Y10, Y9, Y9   \
	VMULPS Y15, Y3, Y10  \ // y3 = m1 − m2 + 8·m3 − 8·m4 + m5
	VADDPS Y10, Y7, Y7   \
	VMULPS Y15, Y4, Y10  \
	VSUBPS Y10, Y7, Y7   \
	VADDPS Y5, Y7, Y7

// func winoOut4AVX2(y *float32, m *float32, stride int, bias float32, relu bool)
//
// Aᵀ·M·A of eight tiles whose 36 components are eight-float loads stride
// bytes apart from m: the column pass runs AT4 down each of the six
// columns into the 4×6 block Aᵀ·M at y (element (r, c) at 192r + 32c), the
// row pass along each of its four rows, adds the bias and, with relu,
// takes VMAXPS(0, y) — 0 where 0 > y, else y, so NaN and −0 pass as they
// do the scalar `if y < 0` — storing output 4r+c at y + 32(4r+c), in place:
// row r's stores land below the rows still to be read.
TEXT ·winoOut4AVX2(SB), NOSPLIT, $0-29
	MOVQ y+0(FP), DI
	MOVQ m+8(FP), SI
	MOVQ stride+16(FP), R8
	VBROADCASTSS bias+24(FP), Y11
	MOVBLZX relu+28(FP), DX
	VXORPS Y12, Y12, Y12
	VBROADCASTSS winoK<>+0(SB), Y13
	VBROADCASTSS winoK<>+4(SB), Y14
	VBROADCASTSS winoK<>+20(SB), Y15
	IMUL3Q $6, R8, R9        // 6·stride
	LEAQ (R9)(R9*2), BX      // 18·stride
	ADDQ SI, BX

	MOVQ DI, AX
	MOVQ $6, CX
	PCALIGN $32
ocol:
	VMOVUPS (SI), Y0
	VMOVUPS (SI)(R9*1), Y1
	VMOVUPS (SI)(R9*2), Y2
	VMOVUPS (BX), Y3
	VMOVUPS (BX)(R9*1), Y4
	VMOVUPS (BX)(R9*2), Y5
	AT4
	VMOVUPS Y6, (AX)
	VMOVUPS Y8, 192(AX)
	VMOVUPS Y9, 384(AX)
	VMOVUPS Y7, 576(AX)
	ADDQ R8, SI
	ADDQ R8, BX
	ADDQ $32, AX
	DECQ CX
	JNZ  ocol

	MOVQ DI, AX
	MOVQ $4, CX
	PCALIGN $32
orow:
	VMOVUPS (AX), Y0
	VMOVUPS 32(AX), Y1
	VMOVUPS 64(AX), Y2
	VMOVUPS 96(AX), Y3
	VMOVUPS 128(AX), Y4
	VMOVUPS 160(AX), Y5
	AT4
	VADDPS Y11, Y6, Y6
	VADDPS Y11, Y8, Y8
	VADDPS Y11, Y9, Y9
	VADDPS Y11, Y7, Y7
	TESTQ DX, DX
	JZ    ostore
	VMAXPS Y6, Y12, Y6
	VMAXPS Y8, Y12, Y8
	VMAXPS Y9, Y12, Y9
	VMAXPS Y7, Y12, Y7
ostore:
	VMOVUPS Y6, (DI)
	VMOVUPS Y8, 32(DI)
	VMOVUPS Y9, 64(DI)
	VMOVUPS Y7, 96(DI)
	ADDQ $192, AX
	ADDQ $128, DI
	DECQ CX
	JNZ  orow
	VZEROUPPER
	RET
