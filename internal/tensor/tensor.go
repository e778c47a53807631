// Package tensor provides the dense NCHW tensors underneath the
// from-scratch U-Net, generic over the two compute precisions the stack
// supports (Tensor[float32] and Tensor[float64]). It deliberately
// implements only what a CNN training stack needs — shape bookkeeping, a
// cache-aware matrix multiply, and the im2col/col2im transforms that turn
// convolutions into matrix products — with no autograd: each layer in
// internal/nn derives its own backward pass, validated by
// finite-difference tests.
//
// Precision policy: float64 is the master/reference precision — the
// kernels' float64 instantiations are the exact pre-generics engine and
// remain bit-identical to the serial reference kernels in ref.go. float32
// is the compute precision for training steps and serving: it halves
// cache-line and memory-bus traffic through the same register-blocked
// kernels. Guarantees are precision-scoped: within one precision, the
// parallel kernels fan out over disjoint output panels/stripes on an
// explicit pool (pool.Shared() in training) and accumulate every output
// element in the serial reference order, so results are bit-identical at
// any worker count (property-tested per precision). Across precisions
// only tolerance bounds hold — see the PrecisionTolerance doc below.
package tensor

import (
	"fmt"

	"seaice/internal/noise"
)

// Scalar is the constraint the numeric stack is generic over: the two
// floating-point compute precisions.
type Scalar interface {
	float32 | float64
}

// PrecisionTolerance documents the cross-precision guarantee: a float32
// kernel result y32 matches the float64 reference y64 within
//
//	|y32 − y64| ≤ PrecisionTolerance · k · max(|y64|, 1)
//
// where k is the accumulation length of the output element (the shared k
// dimension of a GEMM, or the tap count of a convolution). The bound is
// the standard worst-case rounding model k·eps with eps = 2⁻²³ ≈ 1.19e-7
// for float32; the property tests assert it at every worker count. Within
// one precision results are bit-identical at any worker count — the
// bit-identity guarantee of the pre-generics engine, now precision-scoped.
const PrecisionTolerance = 1.2e-7

// IsF32 reports whether the instantiation S is float32 — the one
// precision-dispatch helper the stack shares (layers pick the Winograd
// fast path with it, checkpoints record the precision name).
func IsF32[S Scalar]() bool {
	_, ok := any(S(0)).(float32)
	return ok
}

// Tensor is a dense row-major tensor of S.
type Tensor[S Scalar] struct {
	Shape []int
	Data  []S
}

// New allocates a zeroed tensor with the given shape. The type argument
// selects the precision: New[float64](...) for the master path,
// New[float32](...) for the compute path.
func New[S Scalar](shape ...int) *Tensor[S] {
	n := 1
	for _, s := range shape {
		if s <= 0 {
			panicBadShape(s, shape)
		}
		n *= s
	}
	return &Tensor[S]{Shape: append([]int(nil), shape...), Data: make([]S, n)}
}

// panicBadShape reports an invalid dimension. It copies the shape before
// formatting so the caller's variadic slice never escapes to the heap —
// that keeps New and Grow allocation-free on their hot paths, which the
// training engine's zero-steady-state-alloc guarantee depends on.
func panicBadShape(dim int, shape []int) {
	panic(fmt.Sprintf("tensor: invalid dimension %d in %v", dim, append([]int(nil), shape...)))
}

// FromData wraps existing data; len(data) must match the shape volume.
func FromData[S Scalar](data []S, shape ...int) *Tensor[S] {
	n := 1
	for _, s := range shape {
		n *= s
	}
	if n != len(data) {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v", len(data), shape))
	}
	return &Tensor[S]{Shape: append([]int(nil), shape...), Data: data}
}

// Len returns the number of elements.
func (t *Tensor[S]) Len() int { return len(t.Data) }

// Zero clears all elements in place.
func (t *Tensor[S]) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// AddInPlace accumulates o into t element-wise.
func (t *Tensor[S]) AddInPlace(o *Tensor[S]) {
	if len(t.Data) != len(o.Data) {
		panic(fmt.Sprintf("tensor: add size mismatch %v vs %v", t.Shape, o.Shape))
	}
	for i, v := range o.Data {
		t.Data[i] += v
	}
}

// Scale multiplies every element by s in place.
func (t *Tensor[S]) Scale(s S) {
	for i := range t.Data {
		t.Data[i] *= s
	}
}

// FillRandn fills the tensor with N(0, std) values from a seeded RNG. The
// draw happens in float64 and is rounded to S, so a float32 tensor filled
// from the same seed holds exactly the float32 rounding of the float64
// initialization — the property the cross-precision parity tests rely on.
func (t *Tensor[S]) FillRandn(rng *noise.RNG, std float64) {
	for i := range t.Data {
		t.Data[i] = S(rng.NormFloat64() * std)
	}
}

// Grow resizes *buf to the given shape, reallocating only when the backing
// array is too small; contents are unspecified. It is the grow-only scratch
// buffer primitive behind the training engine's zero-steady-state-alloc
// guarantee: layers call Grow on the same pointer every step and after the
// first step no allocation happens. Returns *buf for convenience.
func Grow[S Scalar](buf **Tensor[S], shape ...int) *Tensor[S] {
	n := 1
	for _, s := range shape {
		if s <= 0 {
			panicBadShape(s, shape)
		}
		n *= s
	}
	t := *buf
	if t == nil || cap(t.Data) < n {
		*buf = New[S](shape...)
		return *buf
	}
	t.Data = t.Data[:n]
	t.Shape = append(t.Shape[:0], shape...)
	return t
}

// Convert copies src into a fresh tensor of the target precision,
// rounding (float64→float32) or widening exactly (float32→float64).
func Convert[D, S Scalar](src *Tensor[S]) *Tensor[D] {
	dst := New[D](src.Shape...)
	for i, v := range src.Data {
		dst.Data[i] = D(v)
	}
	return dst
}
