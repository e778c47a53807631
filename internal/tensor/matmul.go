package tensor

import (
	"fmt"

	"seaice/internal/pool"
)

// The GEMM kernels below are the training engine's hot core, generic over
// the compute precision, and the reference ("engine") backend of both
// float kinds (backend.go). They are register-blocked (4 output rows × 4
// k-steps for the straight and transposed-A products) and parallelized
// over disjoint output panels on the shared pool.
// Every C element still accumulates its k terms in ascending order through
// a single chain, so within one precision results are bit-identical to the
// serial reference kernels in ref.go at any worker count — the property
// tests assert exactly that for both instantiations. The float32
// instantiation moves half the bytes per block through the same blocking;
// on AVX2 hosts its A×B panel is additionally replaced by the assembly
// panel of sgemm_amd64.go (same chains, eight columns per instruction),
// which every A×B entry here — MatMulInto, MatMulSerialInto, GemmSerial —
// reaches through the backend table. The scalar loops rely on the Go
// compiler not fusing s += a·b into an FMA. That holds on amd64 at every
// GOAMD64 level (go1.24 emits no VFMADD/VFMSUB/VFNMADD/VFNMSUB for it,
// v3 included), but the arm64, loong64, ppc64x, riscv64 and s390x ports
// do fuse it: such a build is self-consistent but does not reproduce the
// goldens recorded on amd64. The one deliberate
// semantic difference from the reference: zero entries of A are
// multiplied rather than skipped, which only matters for ±0 and
// non-finite inputs (the skip saved no time on dense He-initialized
// weights anyway).

// serialCutoff is the m·k·n volume below which a product runs inline on
// the calling goroutine: pool dispatch costs more than it saves there.
const serialCutoff = 1 << 15

// minPanel is the smallest per-task output panel width; narrower panels
// would spend more time on goroutine handoff than arithmetic.
const minPanel = 256

// MatMul computes C = A×B for A (m×k) and B (k×n) into a fresh tensor.
func MatMul[S Scalar](a, b *Tensor[S]) *Tensor[S] {
	if len(a.Shape) != 2 || len(b.Shape) != 2 || a.Shape[1] != b.Shape[0] {
		panic(fmt.Sprintf("tensor: matmul shape mismatch %v × %v", a.Shape, b.Shape))
	}
	c := New[S](a.Shape[0], b.Shape[1])
	MatMulInto(c, a, b)
	return c
}

// MatMulInto computes C = A×B into dst, which must be (m×n). dst is fully
// overwritten; it may not alias a or b. The product runs on the active
// float backend for S's kind (backend.go); the default is the blocked
// engine kernel below.
func MatMulInto[S Scalar](dst, a, b *Tensor[S]) {
	if len(a.Shape) != 2 || len(b.Shape) != 2 || a.Shape[1] != b.Shape[0] {
		panic(fmt.Sprintf("tensor: matmul shape mismatch %v × %v", a.Shape, b.Shape))
	}
	m, n := a.Shape[0], b.Shape[1]
	if len(dst.Shape) != 2 || dst.Shape[0] != m || dst.Shape[1] != n {
		panic(fmt.Sprintf("tensor: matmul dst %v for %d×%d product", dst.Shape, m, n))
	}
	Float[S]().MatMulInto(dst, a, b)
}

// engineMatMulInto is the engine's A×B driver, shared by every backend
// that does not bring its own: the active backend's serial panel fanned
// out over column ranges. Shapes are already validated by the public
// wrapper.
func engineMatMulInto[S Scalar](dst, a, b *Tensor[S]) {
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[1]
	panel := Float[S]().Panel
	p := pool.Shared()
	if m*k*n <= serialCutoff || p.Workers() == 1 {
		panel(dst.Data, a.Data, b.Data, m, k, n, k, 0, n, false)
		return
	}
	p.MustMapRanges(n, minPanel, func(lo, hi int) {
		panel(dst.Data, a.Data, b.Data, m, k, n, k, lo, hi, false)
	})
}

// matMulPanel is the engine's FloatOps.Panel: columns [jlo,jhi) of
// C = A×B (A rows lda apart; acc starts from C's current values instead
// of zero). Rows are processed in blocks of four so each loaded B value
// feeds four accumulator chains, and k is unrolled by four so each C
// element is loaded and stored once per four multiply-adds.
func matMulPanel[S Scalar](c, a, b []S, m, k, n, lda, jlo, jhi int, acc bool) {
	var i int
	for i = 0; i+4 <= m; i += 4 {
		c0 := c[(i+0)*n+jlo : (i+0)*n+jhi]
		c1 := c[(i+1)*n+jlo : (i+1)*n+jhi]
		c2 := c[(i+2)*n+jlo : (i+2)*n+jhi]
		c3 := c[(i+3)*n+jlo : (i+3)*n+jhi]
		if !acc {
			for j := range c0 {
				c0[j], c1[j], c2[j], c3[j] = 0, 0, 0, 0
			}
		}
		a0 := a[(i+0)*lda : (i+0)*lda+k]
		a1 := a[(i+1)*lda : (i+1)*lda+k]
		a2 := a[(i+2)*lda : (i+2)*lda+k]
		a3 := a[(i+3)*lda : (i+3)*lda+k]
		var kk int
		for kk = 0; kk+4 <= k; kk += 4 {
			b0 := b[(kk+0)*n+jlo : (kk+0)*n+jhi]
			b1 := b[(kk+1)*n+jlo : (kk+1)*n+jhi]
			b2 := b[(kk+2)*n+jlo : (kk+2)*n+jhi]
			b3 := b[(kk+3)*n+jlo : (kk+3)*n+jhi]
			a00, a01, a02, a03 := a0[kk], a0[kk+1], a0[kk+2], a0[kk+3]
			a10, a11, a12, a13 := a1[kk], a1[kk+1], a1[kk+2], a1[kk+3]
			a20, a21, a22, a23 := a2[kk], a2[kk+1], a2[kk+2], a2[kk+3]
			a30, a31, a32, a33 := a3[kk], a3[kk+1], a3[kk+2], a3[kk+3]
			b1, b2, b3 = b1[:len(b0)], b2[:len(b0)], b3[:len(b0)]
			c0, c1, c2, c3 = c0[:len(b0)], c1[:len(b0)], c2[:len(b0)], c3[:len(b0)]
			for j := range b0 {
				bv0, bv1, bv2, bv3 := b0[j], b1[j], b2[j], b3[j]
				s := c0[j]
				s += a00 * bv0
				s += a01 * bv1
				s += a02 * bv2
				s += a03 * bv3
				c0[j] = s
				s = c1[j]
				s += a10 * bv0
				s += a11 * bv1
				s += a12 * bv2
				s += a13 * bv3
				c1[j] = s
				s = c2[j]
				s += a20 * bv0
				s += a21 * bv1
				s += a22 * bv2
				s += a23 * bv3
				c2[j] = s
				s = c3[j]
				s += a30 * bv0
				s += a31 * bv1
				s += a32 * bv2
				s += a33 * bv3
				c3[j] = s
			}
		}
		for ; kk < k; kk++ {
			brow := b[kk*n+jlo : kk*n+jhi]
			av0, av1, av2, av3 := a0[kk], a1[kk], a2[kk], a3[kk]
			c0, c1, c2, c3 = c0[:len(brow)], c1[:len(brow)], c2[:len(brow)], c3[:len(brow)]
			for j := range brow {
				bv := brow[j]
				c0[j] += av0 * bv
				c1[j] += av1 * bv
				c2[j] += av2 * bv
				c3[j] += av3 * bv
			}
		}
	}
	for ; i < m; i++ {
		crow := c[i*n+jlo : i*n+jhi]
		if !acc {
			for j := range crow {
				crow[j] = 0
			}
		}
		arow := a[i*lda : i*lda+k]
		var kk int
		for kk = 0; kk+4 <= k; kk += 4 {
			b0 := b[(kk+0)*n+jlo : (kk+0)*n+jhi]
			b1 := b[(kk+1)*n+jlo : (kk+1)*n+jhi]
			b2 := b[(kk+2)*n+jlo : (kk+2)*n+jhi]
			b3 := b[(kk+3)*n+jlo : (kk+3)*n+jhi]
			av0, av1, av2, av3 := arow[kk], arow[kk+1], arow[kk+2], arow[kk+3]
			b1, b2, b3 = b1[:len(b0)], b2[:len(b0)], b3[:len(b0)]
			crow = crow[:len(b0)]
			for j := range b0 {
				s := crow[j]
				s += av0 * b0[j]
				s += av1 * b1[j]
				s += av2 * b2[j]
				s += av3 * b3[j]
				crow[j] = s
			}
		}
		for ; kk < k; kk++ {
			brow := b[kk*n+jlo : kk*n+jhi]
			av := arow[kk]
			for j := range brow {
				crow[j] += av * brow[j]
			}
		}
	}
}

// MatMulSerialInto computes C = A×B into dst entirely on the calling
// goroutine — the active backend's panel without the pool dispatch.
// Inference sessions use it: they run one session per serving worker, so
// fanning a session's products out on the shared pool would
// oversubscribe the cores. Results are bit-identical to MatMulInto.
func MatMulSerialInto[S Scalar](dst, a, b *Tensor[S]) {
	if len(a.Shape) != 2 || len(b.Shape) != 2 || a.Shape[1] != b.Shape[0] {
		panic(fmt.Sprintf("tensor: matmul shape mismatch %v × %v", a.Shape, b.Shape))
	}
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[1]
	if len(dst.Shape) != 2 || dst.Shape[0] != m || dst.Shape[1] != n {
		panic(fmt.Sprintf("tensor: matmul dst %v for %d×%d product", dst.Shape, m, n))
	}
	Float[S]().Panel(dst.Data, a.Data, b.Data, m, k, n, k, 0, n, false)
}

// GemmSerial computes C = A×B on raw row-major slices (A m×k, B k×n, C
// m×n, C fully overwritten) entirely on the calling goroutine — the
// active backend's panel without shape bookkeeping. It exists for callers
// that run many small products over hot scratch (the Winograd transform
// domain) where per-call tensor headers would dominate. Results are
// bit-identical to MatMulInto on the same operands.
func GemmSerial[S Scalar](c, a, b []S, m, k, n int) {
	Float[S]().Panel(c, a, b, m, k, n, k, 0, n, false)
}

// MatMulATB computes C = Aᵀ×B for A (k×m) and B (k×n) without forming the
// transpose: convolution backward passes need this product shape.
func MatMulATB[S Scalar](a, b *Tensor[S]) *Tensor[S] {
	if len(a.Shape) != 2 || len(b.Shape) != 2 || a.Shape[0] != b.Shape[0] {
		panic(fmt.Sprintf("tensor: matmulATB shape mismatch %v × %v", a.Shape, b.Shape))
	}
	c := New[S](a.Shape[1], b.Shape[1])
	MatMulATBInto(c, a, b)
	return c
}

// MatMulATBInto computes C = Aᵀ×B into dst, which must be (m×n) for
// A (k×m). dst is fully overwritten; it may not alias a or b. Runs on the
// active float backend for S's kind.
func MatMulATBInto[S Scalar](dst, a, b *Tensor[S]) {
	if len(a.Shape) != 2 || len(b.Shape) != 2 || a.Shape[0] != b.Shape[0] {
		panic(fmt.Sprintf("tensor: matmulATB shape mismatch %v × %v", a.Shape, b.Shape))
	}
	m, n := a.Shape[1], b.Shape[1]
	if len(dst.Shape) != 2 || dst.Shape[0] != m || dst.Shape[1] != n {
		panic(fmt.Sprintf("tensor: matmulATB dst %v for %d×%d product", dst.Shape, m, n))
	}
	Float[S]().MatMulATBInto(dst, a, b)
}

// engineMatMulATBInto is the default float backend's Aᵀ×B kernel.
func engineMatMulATBInto[S Scalar](dst, a, b *Tensor[S]) {
	k, m, n := a.Shape[0], a.Shape[1], b.Shape[1]
	p := pool.Shared()
	if m*k*n <= serialCutoff || p.Workers() == 1 {
		matMulATBPanel(dst.Data, a.Data, b.Data, k, m, n, 0, n)
		return
	}
	p.MustMapRanges(n, minPanel, func(lo, hi int) {
		matMulATBPanel(dst.Data, a.Data, b.Data, k, m, n, lo, hi)
	})
}

// matMulATBPanel computes columns [jlo,jhi) of C = Aᵀ×B; identical
// blocking to matMulPanel with A elements gathered through their k×m
// layout.
func matMulATBPanel[S Scalar](c, a, b []S, k, m, n, jlo, jhi int) {
	var i int
	for i = 0; i+4 <= m; i += 4 {
		c0 := c[(i+0)*n+jlo : (i+0)*n+jhi]
		c1 := c[(i+1)*n+jlo : (i+1)*n+jhi]
		c2 := c[(i+2)*n+jlo : (i+2)*n+jhi]
		c3 := c[(i+3)*n+jlo : (i+3)*n+jhi]
		for j := range c0 {
			c0[j], c1[j], c2[j], c3[j] = 0, 0, 0, 0
		}
		var kk int
		for kk = 0; kk+4 <= k; kk += 4 {
			b0 := b[(kk+0)*n+jlo : (kk+0)*n+jhi]
			b1 := b[(kk+1)*n+jlo : (kk+1)*n+jhi]
			b2 := b[(kk+2)*n+jlo : (kk+2)*n+jhi]
			b3 := b[(kk+3)*n+jlo : (kk+3)*n+jhi]
			a00, a01, a02, a03 := a[(kk+0)*m+i], a[(kk+1)*m+i], a[(kk+2)*m+i], a[(kk+3)*m+i]
			a10, a11, a12, a13 := a[(kk+0)*m+i+1], a[(kk+1)*m+i+1], a[(kk+2)*m+i+1], a[(kk+3)*m+i+1]
			a20, a21, a22, a23 := a[(kk+0)*m+i+2], a[(kk+1)*m+i+2], a[(kk+2)*m+i+2], a[(kk+3)*m+i+2]
			a30, a31, a32, a33 := a[(kk+0)*m+i+3], a[(kk+1)*m+i+3], a[(kk+2)*m+i+3], a[(kk+3)*m+i+3]
			b1, b2, b3 = b1[:len(b0)], b2[:len(b0)], b3[:len(b0)]
			c0, c1, c2, c3 = c0[:len(b0)], c1[:len(b0)], c2[:len(b0)], c3[:len(b0)]
			for j := range b0 {
				bv0, bv1, bv2, bv3 := b0[j], b1[j], b2[j], b3[j]
				s := c0[j]
				s += a00 * bv0
				s += a01 * bv1
				s += a02 * bv2
				s += a03 * bv3
				c0[j] = s
				s = c1[j]
				s += a10 * bv0
				s += a11 * bv1
				s += a12 * bv2
				s += a13 * bv3
				c1[j] = s
				s = c2[j]
				s += a20 * bv0
				s += a21 * bv1
				s += a22 * bv2
				s += a23 * bv3
				c2[j] = s
				s = c3[j]
				s += a30 * bv0
				s += a31 * bv1
				s += a32 * bv2
				s += a33 * bv3
				c3[j] = s
			}
		}
		for ; kk < k; kk++ {
			brow := b[kk*n+jlo : kk*n+jhi]
			av0, av1, av2, av3 := a[kk*m+i], a[kk*m+i+1], a[kk*m+i+2], a[kk*m+i+3]
			c0, c1, c2, c3 = c0[:len(brow)], c1[:len(brow)], c2[:len(brow)], c3[:len(brow)]
			for j := range brow {
				bv := brow[j]
				c0[j] += av0 * bv
				c1[j] += av1 * bv
				c2[j] += av2 * bv
				c3[j] += av3 * bv
			}
		}
	}
	for ; i < m; i++ {
		crow := c[i*n+jlo : i*n+jhi]
		for j := range crow {
			crow[j] = 0
		}
		var kk int
		for kk = 0; kk+4 <= k; kk += 4 {
			b0 := b[(kk+0)*n+jlo : (kk+0)*n+jhi]
			b1 := b[(kk+1)*n+jlo : (kk+1)*n+jhi]
			b2 := b[(kk+2)*n+jlo : (kk+2)*n+jhi]
			b3 := b[(kk+3)*n+jlo : (kk+3)*n+jhi]
			av0, av1, av2, av3 := a[(kk+0)*m+i], a[(kk+1)*m+i], a[(kk+2)*m+i], a[(kk+3)*m+i]
			b1, b2, b3 = b1[:len(b0)], b2[:len(b0)], b3[:len(b0)]
			crow = crow[:len(b0)]
			for j := range b0 {
				s := crow[j]
				s += av0 * b0[j]
				s += av1 * b1[j]
				s += av2 * b2[j]
				s += av3 * b3[j]
				crow[j] = s
			}
		}
		for ; kk < k; kk++ {
			brow := b[kk*n+jlo : kk*n+jhi]
			av := a[kk*m+i]
			for j := range brow {
				crow[j] += av * brow[j]
			}
		}
	}
}
