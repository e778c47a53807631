// Package nn implements the neural-network layers of the paper's U-Net —
// 3×3 convolutions with ReLU, 2×2 max-pooling, 2×2 up-convolutions
// (transposed convolutions), skip-connection concatenation, dropout, the
// softmax + categorical cross-entropy loss, and the Adam optimizer — each
// with a hand-derived backward pass verified against finite differences
// in the package tests. There is no autograd: the U-Net in internal/unet
// wires these layers into its encoder–decoder graph explicitly.
//
// Every layer is generic over the compute precision (tensor.Scalar:
// float32 or float64). float64 is the master/reference path; float32 is
// the default compute precision for training steps and serving, with the
// Adam optimizer optionally holding float64 master weights (mixed
// precision) so repeated tiny updates don't vanish in float32 rounding.
//
// Layers cache forward activations for the backward pass, so a layer
// instance supports one in-flight forward/backward pair at a time; the
// data-parallel trainer gives each simulated GPU its own model replica.
//
// Parallelism guarantees are precision-scoped: conv kernels take an
// explicit pool — training passes pool.Shared(), the inference session
// runs them serially — and accumulate in the serial reference order, so
// within one precision outputs are bit-identical at any worker count
// (and identical to the pre-engine im2col/GEMM reference the package
// tests keep). Across precisions only the tolerance
// bounds of tensor.PrecisionTolerance hold. Layer scratch buffers are
// grow-only: a steady-state training step performs a handful of heap
// allocations.
package nn

import "seaice/internal/tensor"

// Param is one learnable tensor with its gradient accumulator.
type Param[S tensor.Scalar] struct {
	Name string
	W    *tensor.Tensor[S]
	Grad *tensor.Tensor[S]
}

// Layer is a differentiable module.
type Layer[S tensor.Scalar] interface {
	// Name identifies the layer in diagnostics and checkpoints.
	Name() string
	// Forward computes the output; train enables dropout.
	Forward(x *tensor.Tensor[S], train bool) *tensor.Tensor[S]
	// Backward consumes dL/dy and returns dL/dx, accumulating
	// parameter gradients.
	Backward(dy *tensor.Tensor[S]) *tensor.Tensor[S]
	// Params lists learnable parameters (possibly none).
	Params() []*Param[S]
}

// ZeroGrads clears the gradient accumulators of all params.
func ZeroGrads[S tensor.Scalar](params []*Param[S]) {
	for _, p := range params {
		p.Grad.Zero()
	}
}
