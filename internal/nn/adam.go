package nn

import (
	"math"

	"seaice/internal/pool"
	"seaice/internal/tensor"
)

// Adam implements the Adam optimizer (Kingma & Ba), the optimizer the
// paper trains its U-Net with, generic over the parameter precision. One
// instance owns the moment estimates for a fixed parameter set.
//
// The update math always runs in float64: moments are stored as float64
// regardless of S, so the float64 instantiation is bit-identical to the
// pre-generics optimizer. For float32 parameters, setting Master keeps a
// persistent float64 master copy of every weight (the mixed-precision
// recipe): gradients arrive in float32, the master accumulates the full
// float64 update, and the float32 weight is the rounded master. Without
// Master the float32 weight itself is widened, updated, and re-rounded
// each step — cheaper, but updates smaller than the weight's float32 ulp
// are lost.
type Adam[S tensor.Scalar] struct {
	LR      float64
	Beta1   float64
	Beta2   float64
	Epsilon float64
	// Master enables float64 master weights (mixed precision). It must be
	// set before the first Step and matters only for float32 parameters;
	// for float64 the master copy would equal the weights bit-for-bit.
	Master bool

	t      int
	m      [][]float64
	v      [][]float64
	master [][]float64
}

// NewAdam returns an optimizer with the conventional defaults
// (β1=0.9, β2=0.999, ε=1e-8).
func NewAdam[S tensor.Scalar](lr float64) *Adam[S] {
	return &Adam[S]{LR: lr, Beta1: 0.9, Beta2: 0.999, Epsilon: 1e-8}
}

// Step applies one update to the parameters using their accumulated
// gradients, then the caller typically zeroes the grads. Moment (and
// master-weight) buffers are allocated lazily on first use and tracked by
// position, so the same parameter slice (same order) must be passed every
// step.
func (a *Adam[S]) Step(params []*Param[S]) {
	if a.m == nil {
		a.m = make([][]float64, len(params))
		a.v = make([][]float64, len(params))
		for i, p := range params {
			a.m[i] = make([]float64, p.W.Len())
			a.v[i] = make([]float64, p.W.Len())
		}
		if a.Master {
			a.master = make([][]float64, len(params))
			for i, p := range params {
				a.master[i] = make([]float64, p.W.Len())
				for j, w := range p.W.Data {
					a.master[i][j] = float64(w)
				}
			}
		}
	}
	a.t++
	bc1 := 1 - math.Pow(a.Beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.t))

	// Parameters are independent, so the update fans out over the shared
	// pool; the per-element math is unchanged, keeping updates
	// bit-identical to a serial sweep at any worker count.
	pool.Shared().MustMapRanges(len(params), 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			p := params[i]
			m, v := a.m[i], a.v[i]
			if a.master != nil {
				w := a.master[i]
				for j, gs := range p.Grad.Data {
					g := float64(gs)
					m[j] = a.Beta1*m[j] + (1-a.Beta1)*g
					v[j] = a.Beta2*v[j] + (1-a.Beta2)*g*g
					mh := m[j] / bc1
					vh := v[j] / bc2
					w[j] -= a.LR * mh / (math.Sqrt(vh) + a.Epsilon)
					p.W.Data[j] = S(w[j])
				}
				continue
			}
			for j, gs := range p.Grad.Data {
				g := float64(gs)
				m[j] = a.Beta1*m[j] + (1-a.Beta1)*g
				v[j] = a.Beta2*v[j] + (1-a.Beta2)*g*g
				mh := m[j] / bc1
				vh := v[j] / bc2
				p.W.Data[j] = S(float64(p.W.Data[j]) - a.LR*mh/(math.Sqrt(vh)+a.Epsilon))
			}
		}
	})
}

// AdamState is the full serializable optimizer state: step counter,
// first/second moment estimates, and (for mixed precision) the float64
// master weights. All buffers are float64 regardless of the parameter
// precision, so a snapshot restores either instantiation exactly —
// the fault-tolerance recovery path (internal/ddp) depends on a
// restored optimizer being bit-identical to the one that crashed.
type AdamState struct {
	T      int
	M, V   [][]float64
	Master [][]float64 // nil unless Master weights are enabled and stepped
}

// cloneF64 deep-copies a moment buffer set.
func cloneF64(src [][]float64) [][]float64 {
	if src == nil {
		return nil
	}
	out := make([][]float64, len(src))
	for i, s := range src {
		out[i] = append([]float64(nil), s...)
	}
	return out
}

// State deep-copies the optimizer state. Before the first Step the
// moment buffers are nil; restoring such a state yields a fresh
// optimizer.
func (a *Adam[S]) State() AdamState {
	return AdamState{T: a.t, M: cloneF64(a.m), V: cloneF64(a.v), Master: cloneF64(a.master)}
}

// SetState deep-copies a captured state into the optimizer. The next
// Step must receive the same parameter slice (same order and sizes) the
// state was captured against.
func (a *Adam[S]) SetState(st AdamState) {
	a.t = st.T
	a.m = cloneF64(st.M)
	a.v = cloneF64(st.V)
	a.master = cloneF64(st.Master)
}
