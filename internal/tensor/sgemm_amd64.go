//go:build amd64

// AVX2 float32 GEMM backend. The hot loop is sgemmBlocksAVX2 in
// sgemm_amd64.s: 4-row × 8-column tiles of C, vectorised across the eight
// independent output columns with separate VMULPS/VADDPS, so every C
// element keeps the engine's ascending-k single chain and the backend is
// bit-identical to the scalar panel (TestFloatBackendConformance). The
// Go driver hands the assembly the 4×8-aligned body and runs the m%4 row
// and (jhi-jlo)%8 column tails through the scalar panel.

package tensor

// sgemmBlocksAVX2 computes mb×nb tiles of 4×8 outputs; see sgemm_amd64.s.
//
//go:noescape
func sgemmBlocksAVX2(c, a, b *float32, mb, k, nb, lda, ldb int, acc bool)

// panelAVX2 is the avx2 backend's FloatOps.Panel.
func panelAVX2(c, a, b []float32, m, k, n, lda, jlo, jhi int, acc bool) {
	m4, w8 := m&^3, (jhi-jlo)&^7
	if m4 == 0 || w8 <= 0 || k <= 0 {
		matMulPanel(c, a, b, m, k, n, lda, jlo, jhi, acc)
		return
	}
	// The assembly does no bounds checks: touch the last element each
	// operand's body reaches so a short slice panics here instead.
	_ = c[(m4-1)*n+jlo+w8-1]
	_ = a[(m4-1)*lda+k-1]
	_ = b[(k-1)*n+jlo+w8-1]
	sgemmBlocksAVX2(&c[jlo], &a[0], &b[jlo], m4/4, k, w8/8, lda, n, acc)
	if jlo+w8 < jhi { // column tail, all rows
		matMulPanel(c, a, b, m, k, n, lda, jlo+w8, jhi, acc)
	}
	if m4 < m { // row tail under the vectorised columns
		matMulPanel(c[m4*n:], a[m4*lda:], b, m-m4, k, n, lda, jlo, jlo+w8, acc)
	}
}

func init() {
	RegisterFloat(&FloatOps[float32]{
		Name:      "avx2",
		Priority:  100,
		Available: func() bool { return hasAVX2 },
		SIMD:      true,
		Panel:     panelAVX2,
		WinoIn4:   winoIn4Lanes8,
	})
}
