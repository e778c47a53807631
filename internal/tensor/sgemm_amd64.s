//go:build amd64

#include "textflag.h"

// func sgemmBlocksAVX2(c, a, b *float32, mb, k, nb, lda, ldb int, acc bool)
//
// mb×nb tiles of 4 rows × 8 columns of C = A×B (or C += A×B when acc):
// C and B rows are ldb floats apart, A rows lda. Per tile the four YMM
// accumulators start at zero (or at C's values) and take, per k step, one
// 8-wide B load, four A broadcasts, and a separate VMULPS and VADDPS per
// row — every lane is one C element's ascending-k chain with each product
// and each sum rounded on its own, exactly the scalar kernel's MULSS/ADDSS
// sequence. No FMA: fusing would skip the product's rounding and change
// result bits. mb ≤ 0, nb ≤ 0 and k ≤ 0 are no-ops / plain zero-or-keep
// stores, never a wrapped countdown.
TEXT ·sgemmBlocksAVX2(SB), NOSPLIT, $0-65
	MOVQ c+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ mb+24(FP), R8
	MOVQ lda+48(FP), R10
	MOVQ ldb+56(FP), R11
	SHLQ $2, R10             // row strides in bytes
	SHLQ $2, R11
	LEAQ (R10)(R10*2), R12   // 3·lda
	LEAQ (R11)(R11*2), R13   // 3·ldb
	TESTQ R8, R8
	JLE  done
	CMPQ nb+40(FP), $0
	JLE  done

rowloop:
	MOVQ b+16(FP), DX        // B column cursor, rewound per row block
	MOVQ DI, R14             // C tile cursor
	MOVQ nb+40(FP), R9

colloop:
	CMPB acc+64(FP), $0
	JNE  loadc
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	JMP  kinit

loadc:
	VMOVUPS (R14), Y0
	VMOVUPS (R14)(R11*1), Y1
	VMOVUPS (R14)(R11*2), Y2
	VMOVUPS (R14)(R13*1), Y3

kinit:
	MOVQ SI, AX              // A cursor: row i, column kk
	MOVQ DX, BX              // B cursor: row kk, this tile's 8 columns
	MOVQ k+32(FP), CX
	TESTQ CX, CX
	JLE  storec

kloop:
	VMOVUPS      (BX), Y4
	VBROADCASTSS (AX), Y5
	VMULPS       Y4, Y5, Y5
	VADDPS       Y5, Y0, Y0
	VBROADCASTSS (AX)(R10*1), Y6
	VMULPS       Y4, Y6, Y6
	VADDPS       Y6, Y1, Y1
	VBROADCASTSS (AX)(R10*2), Y7
	VMULPS       Y4, Y7, Y7
	VADDPS       Y7, Y2, Y2
	VBROADCASTSS (AX)(R12*1), Y8
	VMULPS       Y4, Y8, Y8
	VADDPS       Y8, Y3, Y3
	ADDQ         $4, AX
	ADDQ         R11, BX
	DECQ         CX
	JNZ          kloop

storec:
	VMOVUPS Y0, (R14)
	VMOVUPS Y1, (R14)(R11*1)
	VMOVUPS Y2, (R14)(R11*2)
	VMOVUPS Y3, (R14)(R13*1)
	ADDQ    $32, R14
	ADDQ    $32, DX
	DECQ    R9
	JNZ     colloop

	LEAQ (DI)(R11*4), DI     // next four C rows
	LEAQ (SI)(R10*4), SI     // next four A rows
	DECQ R8
	JNZ  rowloop

done:
	VZEROUPPER
	RET
