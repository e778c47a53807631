package nn

import (
	"math"
	"slices"
	"strings"
	"testing"

	"seaice/internal/noise"
	"seaice/internal/tensor"
)

// numGrad computes ∂loss/∂data[i] by central differences.
func numGrad(data []float64, i int, loss func() float64) float64 {
	const eps = 1e-5
	orig := data[i]
	data[i] = orig + eps
	lp := loss()
	data[i] = orig - eps
	lm := loss()
	data[i] = orig
	return (lp - lm) / (2 * eps)
}

// scalarLoss reduces a tensor to ½Σy² so dL/dy = y, giving a simple,
// well-conditioned target for gradient checks.
func scalarLoss(y *tensor.Tensor[float64]) float64 {
	s := 0.0
	for _, v := range y.Data {
		s += v * v
	}
	return s / 2
}

// passLayer is the forward and backward surface of a single-input layer.
type passLayer[S tensor.Scalar] interface {
	Name() string
	Forward(x *tensor.Tensor[S], train bool) *tensor.Tensor[S]
	Backward(dy *tensor.Tensor[S]) *tensor.Tensor[S]
}

// testLayer is the single-input surface the gradient and engine tests
// drive every layer through.
type testLayer[S tensor.Scalar] interface {
	passLayer[S]
	Params() []*Param[S]
}

// clone returns a deep copy of x.
func clone[S tensor.Scalar](x *tensor.Tensor[S]) *tensor.Tensor[S] {
	return tensor.FromData(slices.Clone(x.Data), x.Shape...)
}

// noParams adapts a layer without learnable parameters to testLayer.
type noParams[S tensor.Scalar] struct{ passLayer[S] }

func (noParams[S]) Params() []*Param[S] { return nil }

// checkLayerGradients validates input and parameter gradients of a layer
// against finite differences on a random input of the given shape.
func checkLayerGradients(t *testing.T, layer testLayer[float64], shape []int, tol float64) {
	t.Helper()
	rng := noise.NewRNG(99, 7)
	x := tensor.New[float64](shape...)
	x.FillRandn(rng, 1)

	forwardLoss := func() float64 { return scalarLoss(layer.Forward(x, false)) }

	// analytic gradients
	y := layer.Forward(x, false)
	ZeroGrads(layer.Params())
	dx := layer.Backward(clone(y)) // dL/dy = y for the ½Σy² loss

	// input gradient, sampled positions
	for i := 0; i < x.Len(); i += 1 + x.Len()/17 {
		want := numGrad(x.Data, i, forwardLoss)
		got := dx.Data[i]
		if math.Abs(got-want) > tol*(1+math.Abs(want)) {
			t.Fatalf("%s: input grad [%d] = %.6g, finite diff %.6g", layer.Name(), i, got, want)
		}
	}
	// parameter gradients, sampled positions
	for _, p := range layer.Params() {
		for i := 0; i < p.W.Len(); i += 1 + p.W.Len()/13 {
			want := numGrad(p.W.Data, i, forwardLoss)
			got := p.Grad.Data[i]
			if math.Abs(got-want) > tol*(1+math.Abs(want)) {
				t.Fatalf("%s: param %s grad [%d] = %.6g, finite diff %.6g", layer.Name(), p.Name, i, got, want)
			}
		}
	}
}

func TestConv2DGradients(t *testing.T) {
	rng := noise.NewRNG(1, 1)
	checkLayerGradients(t, NewConv2D[float64]("conv", 3, 4, 3, rng), []int{2, 3, 6, 5}, 1e-6)
}

func TestConv2D1x1Gradients(t *testing.T) {
	rng := noise.NewRNG(2, 1)
	checkLayerGradients(t, NewConv2D[float64]("conv1x1", 4, 3, 1, rng), []int{2, 4, 5, 5}, 1e-6)
}

// TestConv2DRejectsOtherKernels: only the two shapes with direct kernels
// exist; any other size is refused at construction, by name.
func TestConv2DRejectsOtherKernels(t *testing.T) {
	for _, k := range []int{0, 2, 5} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "conv5x5") || !strings.Contains(msg, "3×3 and 1×1") {
					t.Errorf("k=%d: panic %q, want one naming the layer and the supported shapes", k, msg)
				}
			}()
			NewConv2D[float64]("conv5x5", 3, 4, k, noise.NewRNG(1, 1))
		}()
	}
}

func TestConvTransposeGradients(t *testing.T) {
	rng := noise.NewRNG(3, 1)
	checkLayerGradients(t, NewConvTranspose2x2[float64]("up", 4, 2, rng), []int{2, 4, 3, 5}, 1e-6)
}

func TestReLUGradients(t *testing.T) {
	checkLayerGradients(t, noParams[float64]{NewReLU[float64]("relu")}, []int{2, 3, 4, 4}, 1e-5)
}

func TestMaxPoolGradients(t *testing.T) {
	checkLayerGradients(t, noParams[float64]{NewMaxPool2[float64]("pool")}, []int{2, 3, 6, 4}, 1e-5)
}

// TestDropoutInference: dropout must be the identity at inference and
// preserve expectation during training.
func TestDropoutInference(t *testing.T) {
	rng := noise.NewRNG(4, 1)
	d := NewDropout[float64]("drop", 0.4, rng)
	x := tensor.New[float64](1, 2, 8, 8)
	x.FillRandn(noise.NewRNG(5, 1), 1)

	y := d.Forward(x, false)
	for i := range y.Data {
		if y.Data[i] != x.Data[i] {
			t.Fatalf("dropout changed data at inference")
		}
	}

	// Training mode: survivors are scaled by 1/(1-rate); over many
	// trials the mean output equals the input.
	sum := 0.0
	const trials = 400
	xi := 7
	for k := 0; k < trials; k++ {
		yt := d.Forward(x, true)
		sum += yt.Data[xi]
	}
	mean := sum / trials
	if math.Abs(mean-x.Data[xi]) > 0.25*math.Abs(x.Data[xi])+0.05 {
		t.Fatalf("dropout expectation %.4f far from input %.4f", mean, x.Data[xi])
	}
}

// TestDropoutBackwardMask: the backward mask must match the forward mask.
func TestDropoutBackwardMask(t *testing.T) {
	rng := noise.NewRNG(6, 1)
	d := NewDropout[float64]("drop", 0.5, rng)
	x := tensor.New[float64](1, 1, 8, 8)
	for i := range x.Data {
		x.Data[i] = 1
	}
	y := d.Forward(x, true)
	dy := tensor.New[float64](1, 1, 8, 8)
	for i := range dy.Data {
		dy.Data[i] = 1
	}
	dx := d.Backward(dy)
	for i := range y.Data {
		if (y.Data[i] == 0) != (dx.Data[i] == 0) {
			t.Fatalf("dropout forward/backward masks disagree at %d", i)
		}
	}
}

func TestConcatJoinSplit(t *testing.T) {
	c := NewConcat[float64]("cat")
	rng := noise.NewRNG(7, 1)
	a := tensor.New[float64](2, 3, 4, 4)
	b := tensor.New[float64](2, 5, 4, 4)
	a.FillRandn(rng, 1)
	b.FillRandn(rng, 1)

	y := c.Join(a, b)
	if y.Shape[1] != 8 {
		t.Fatalf("concat channels = %d, want 8", y.Shape[1])
	}
	da, db := c.Split(y)
	for i := range a.Data {
		if da.Data[i] != a.Data[i] {
			t.Fatalf("split(a) mismatch at %d", i)
		}
	}
	for i := range b.Data {
		if db.Data[i] != b.Data[i] {
			t.Fatalf("split(b) mismatch at %d", i)
		}
	}
}

// TestSoftmaxCrossEntropyGrad validates the fused loss gradient.
func TestSoftmaxCrossEntropyGrad(t *testing.T) {
	rng := noise.NewRNG(8, 1)
	logits := tensor.New[float64](2, 3, 4, 4)
	logits.FillRandn(rng, 1)
	labels := make([]uint8, 2*4*4)
	lr := noise.NewRNG(9, 1)
	for i := range labels {
		labels[i] = uint8(lr.Intn(3))
	}

	var s SoftmaxCrossEntropy[float64]
	lossFn := func() float64 {
		l, err := s.Loss(logits, labels)
		if err != nil {
			t.Fatalf("loss: %v", err)
		}
		return l
	}
	lossFn()
	g := s.Grad()
	for i := 0; i < logits.Len(); i += 3 {
		want := numGrad(logits.Data, i, lossFn)
		got := g.Data[i]
		if math.Abs(got-want) > 1e-6*(1+math.Abs(want)) {
			t.Fatalf("loss grad [%d] = %.8g, finite diff %.8g", i, got, want)
		}
	}
}

// TestSoftmaxGradSumsToZero: per pixel, the softmax-CE gradient over
// classes sums to zero (probabilities sum to one).
func TestSoftmaxGradSumsToZero(t *testing.T) {
	rng := noise.NewRNG(10, 1)
	logits := tensor.New[float64](1, 3, 4, 4)
	logits.FillRandn(rng, 2)
	labels := make([]uint8, 16)

	var s SoftmaxCrossEntropy[float64]
	if _, err := s.Loss(logits, labels); err != nil {
		t.Fatalf("loss: %v", err)
	}
	g := s.Grad()
	plane := 16
	for p := 0; p < plane; p++ {
		sum := g.Data[p] + g.Data[plane+p] + g.Data[2*plane+p]
		if math.Abs(sum) > 1e-12 {
			t.Fatalf("gradient sum over classes at pixel %d = %g", p, sum)
		}
	}
}

// TestAdamConvergesOnQuadratic: Adam must minimize a simple quadratic.
func TestAdamConvergesOnQuadratic(t *testing.T) {
	w := tensor.New[float64](4)
	for i := range w.Data {
		w.Data[i] = float64(i) + 1
	}
	p := &Param[float64]{Name: "w", W: w, Grad: tensor.New[float64](4)}
	opt := NewAdam[float64](0.1)
	for step := 0; step < 500; step++ {
		for i := range w.Data {
			p.Grad.Data[i] = w.Data[i] // d/dw ½w² = w
		}
		opt.Step([]*Param[float64]{p})
		ZeroGrads([]*Param[float64]{p})
	}
	for i, v := range w.Data {
		if math.Abs(v) > 1e-3 {
			t.Fatalf("adam failed to minimize: w[%d]=%g", i, v)
		}
	}
}

// TestPredictArgmax: Predict must return the channel-wise argmax.
func TestPredictArgmax(t *testing.T) {
	logits := tensor.New[float64](1, 3, 2, 2)
	// pixel 0 → class 2, pixel 1 → class 0, pixel 2 → class 1, pixel 3 → class 2
	set := func(ch, p int, v float64) { logits.Data[ch*4+p] = v }
	set(2, 0, 5)
	set(0, 1, 3)
	set(1, 2, 2)
	set(2, 3, 1)
	got := Predict(logits)
	want := []uint8{2, 0, 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("predict[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}
