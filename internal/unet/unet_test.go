package unet

import (
	"bytes"
	"math"
	"testing"

	"seaice/internal/nn"
	"seaice/internal/noise"
	"seaice/internal/tensor"
)

func tinyConfig(seed uint64) Config {
	return Config{Depth: 2, BaseChannels: 4, InChannels: 3, Classes: 3, DropoutRate: 0, Seed: seed}
}

func TestPaperConfigHas28ConvLayers(t *testing.T) {
	if got := PaperConfig(1).NumConvLayers(); got != 28 {
		t.Fatalf("paper config has %d conv layers, want 28 (§III-C1)", got)
	}
	// The assembled model must agree with the config arithmetic; check
	// on a small instance to keep the test fast.
	m, err := New[float64](tinyConfig(1))
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	if got, want := m.NumConvLayers(), m.Config().NumConvLayers(); got != want {
		t.Fatalf("assembled model has %d conv layers, config arithmetic says %d", got, want)
	}
}

func TestForwardShape(t *testing.T) {
	m, err := New[float64](tinyConfig(1))
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	x := tensor.New[float64](2, 3, 16, 16)
	x.FillRandn(noise.NewRNG(1, 1), 1)
	y := m.Forward(x, false)
	want := []int{2, 3, 16, 16}
	for i, d := range want {
		if y.Shape[i] != d {
			t.Fatalf("output shape %v, want %v", y.Shape, want)
		}
	}
}

// TestModelGradients runs a finite-difference check through the entire
// U-Net graph — encoder, bottleneck, skip connections, decoder, head.
func TestModelGradients(t *testing.T) {
	m, err := New[float64](tinyConfig(2))
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	x := tensor.New[float64](1, 3, 8, 8)
	x.FillRandn(noise.NewRNG(2, 1), 1)
	labels := make([]uint8, 64)
	lr := noise.NewRNG(3, 1)
	for i := range labels {
		labels[i] = uint8(lr.Intn(3))
	}

	params := m.Params()
	nn.ZeroGrads(params)
	if _, err := m.LossAndGrad(x, labels); err != nil {
		t.Fatalf("loss: %v", err)
	}

	lossAt := func() float64 {
		logits := m.Forward(x, false)
		var s nn.SoftmaxCrossEntropy[float64]
		l, err := s.Loss(logits, labels)
		if err != nil {
			t.Fatalf("loss: %v", err)
		}
		return l
	}

	const eps = 1e-5
	checked := 0
	for _, p := range params {
		stride := 1 + p.W.Len()/5
		for i := 0; i < p.W.Len(); i += stride {
			orig := p.W.Data[i]
			p.W.Data[i] = orig + eps
			lp := lossAt()
			p.W.Data[i] = orig - eps
			lm := lossAt()
			p.W.Data[i] = orig
			want := (lp - lm) / (2 * eps)
			got := p.Grad.Data[i]
			if math.Abs(got-want) > 1e-5*(1+math.Abs(want)) {
				t.Fatalf("param %s grad [%d] = %.8g, finite diff %.8g", p.Name, i, got, want)
			}
			checked++
		}
	}
	if checked < 30 {
		t.Fatalf("only %d gradient entries checked", checked)
	}
}

// TestTrainingReducesLoss: a few Adam steps on a fixed batch must reduce
// the loss substantially — the end-to-end smoke test of the stack.
func TestTrainingReducesLoss(t *testing.T) {
	m, err := New[float64](tinyConfig(3))
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	x := tensor.New[float64](2, 3, 16, 16)
	x.FillRandn(noise.NewRNG(4, 1), 1)
	labels := make([]uint8, 2*16*16)
	lr := noise.NewRNG(5, 1)
	for i := range labels {
		labels[i] = uint8(lr.Intn(3))
	}

	params := m.Params()
	opt := nn.NewAdam[float64](0.01)
	first, last := 0.0, 0.0
	for step := 0; step < 30; step++ {
		nn.ZeroGrads(params)
		loss, err := m.LossAndGrad(x, labels)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if step == 0 {
			first = loss
		}
		last = loss
		opt.Step(params)
	}
	t.Logf("loss %f → %f over 30 steps", first, last)
	if last > first*0.7 {
		t.Fatalf("training did not reduce loss: %f → %f", first, last)
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	m, err := New[float64](tinyConfig(6))
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	m2, err := Load[float64](bytes.NewReader(saved(t, m.SaveFile)))
	if err != nil {
		t.Fatalf("load: %v", err)
	}

	x := tensor.New[float64](1, 3, 8, 8)
	x.FillRandn(noise.NewRNG(7, 1), 1)
	y1 := m.Forward(x, false)
	y2 := m2.Forward(x, false)
	for i := range y1.Data {
		if y1.Data[i] != y2.Data[i] {
			t.Fatalf("restored model diverges at output %d", i)
		}
	}
}

func TestCopyWeightsBroadcast(t *testing.T) {
	a, _ := New[float64](tinyConfig(8))
	b, _ := New[float64](tinyConfig(9)) // different init
	if err := b.CopyWeightsFrom(a); err != nil {
		t.Fatalf("broadcast: %v", err)
	}
	x := tensor.New[float64](1, 3, 8, 8)
	x.FillRandn(noise.NewRNG(10, 1), 1)
	ya := a.Forward(x, false)
	yb := b.Forward(x, false)
	for i := range ya.Data {
		if ya.Data[i] != yb.Data[i] {
			t.Fatalf("broadcast models diverge at %d", i)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Depth: 0, BaseChannels: 4, InChannels: 3, Classes: 3},
		{Depth: 31, BaseChannels: 4, InChannels: 3, Classes: 3},
		{Depth: 2, BaseChannels: 0, InChannels: 3, Classes: 3},
		{Depth: 2, BaseChannels: 4, InChannels: 3, Classes: 1},
		{Depth: 2, BaseChannels: 4, InChannels: 3, Classes: 3, DropoutRate: 1.0},
	}
	for i, cfg := range bad {
		if _, err := New[float64](cfg); err == nil {
			t.Fatalf("config %d should be rejected: %+v", i, cfg)
		}
	}
}
