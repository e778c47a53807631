package train

import (
	"fmt"
	"math"
	"testing"

	"seaice/internal/noise"
	"seaice/internal/raster"
	"seaice/internal/unet"
)

func synthSamples(seed uint64, n, size int) []Sample {
	rng := noise.NewRNG(seed, 1)
	out := make([]Sample, n)
	for i := range out {
		img := raster.NewRGB(size, size)
		lab := raster.NewLabels(size, size)
		for p := 0; p < size*size; p++ {
			// brightness-coded classes so the task is learnable
			c := raster.Class(rng.Intn(3))
			lab.Pix[p] = c
			var v uint8
			switch c {
			case raster.ClassWater:
				v = 20
			case raster.ClassThinIce:
				v = 120
			default:
				v = 230
			}
			img.Pix[3*p], img.Pix[3*p+1], img.Pix[3*p+2] = v, v, v
		}
		out[i] = Sample{Image: img, Labels: lab}
	}
	return out
}

func TestToTensorScalesAndOrders(t *testing.T) {
	s := synthSamples(1, 2, 4)
	x, labels, err := ToTensor[float64](s)
	if err != nil {
		t.Fatalf("totensor: %v", err)
	}
	if x.Shape[0] != 2 || x.Shape[1] != 3 || x.Shape[2] != 4 || x.Shape[3] != 4 {
		t.Fatalf("shape %v", x.Shape)
	}
	if len(labels) != 32 {
		t.Fatalf("labels %d", len(labels))
	}
	// channel scaling: pixel value v maps to v/255
	wantR := float64(s[0].Image.Pix[0]) / 255
	if x.Data[0] != wantR {
		t.Fatalf("red channel %f, want %f", x.Data[0], wantR)
	}
}

func TestToTensorErrors(t *testing.T) {
	if _, _, err := ToTensor[float64](nil); err == nil {
		t.Fatal("expected empty-batch error")
	}
	a := synthSamples(2, 1, 4)[0]
	b := synthSamples(3, 1, 8)[0]
	if _, _, err := ToTensor[float64]([]Sample{a, b}); err == nil {
		t.Fatal("expected size-mismatch error")
	}
	bad := a
	bad.Labels = raster.NewLabels(3, 4)
	if _, _, err := ToTensor[float64]([]Sample{bad}); err == nil {
		t.Fatal("expected label-size error")
	}
}

func TestBatcherCoversDatasetEachEpoch(t *testing.T) {
	s := synthSamples(4, 10, 4)
	b, err := NewBatcher(s, 3, 7)
	if err != nil {
		t.Fatalf("batcher: %v", err)
	}
	if b.NumBatches() != 4 || b.Len() != 10 {
		t.Fatalf("batches %d len %d", b.NumBatches(), b.Len())
	}
	for epoch := 0; epoch < 3; epoch++ {
		batches := b.Epoch(epoch)
		total := 0
		for _, batch := range batches {
			total += len(batch)
		}
		if total != 10 {
			t.Fatalf("epoch %d covers %d samples", epoch, total)
		}
	}
	// different epochs shuffle differently (with overwhelming probability)
	e0 := b.Epoch(0)
	e1 := b.Epoch(1)
	same := true
	for i := range e0[0] {
		if e0[0][i].Image != e1[0][i].Image {
			same = false
		}
	}
	if same {
		t.Fatal("epochs not reshuffled")
	}
	// determinism for the same epoch index
	e0b := b.Epoch(0)
	for i := range e0[0] {
		if e0[0][i].Image != e0b[0][i].Image {
			t.Fatal("epoch shuffle not deterministic")
		}
	}
}

func TestFitLearnsBrightnessTask(t *testing.T) {
	samples := synthSamples(5, 12, 8)
	cfg := unet.Config{Depth: 2, BaseChannels: 4, InChannels: 3, Classes: 3, DropoutRate: 0, Seed: 7}
	m, err := unet.New[float64](cfg)
	if err != nil {
		t.Fatalf("model: %v", err)
	}
	var losses []float64
	res, err := Fit(m, samples, Config{
		Epochs: 12, BatchSize: 4, LR: 0.02, Seed: 3,
		Progress: func(_ int, l float64) { losses = append(losses, l) },
	})
	if err != nil {
		t.Fatalf("fit: %v", err)
	}
	if len(losses) != 12 || res.Steps != 12*3 {
		t.Fatalf("bookkeeping wrong: %d losses, %d steps", len(losses), res.Steps)
	}
	if losses[len(losses)-1] > losses[0]*0.5 {
		t.Fatalf("loss barely moved: %f → %f", losses[0], losses[len(losses)-1])
	}

	conf, err := Evaluate(m, samples)
	if err != nil {
		t.Fatalf("evaluate: %v", err)
	}
	if conf.Accuracy() < 0.9 {
		t.Fatalf("brightness task accuracy %.4f < 0.9", conf.Accuracy())
	}
}

func TestFitValidation(t *testing.T) {
	samples := synthSamples(6, 2, 4)
	cfg := unet.Config{Depth: 1, BaseChannels: 2, InChannels: 3, Classes: 3, Seed: 1}
	m, _ := unet.New[float64](cfg)
	if _, err := Fit(m, samples, Config{Epochs: 0, BatchSize: 1, LR: 0.01}); err == nil {
		t.Fatal("expected epochs error")
	}
	if _, err := Fit(m, samples, Config{Epochs: 1, BatchSize: 0, LR: 0.01}); err == nil {
		t.Fatal("expected batch error")
	}
	if _, err := Fit(m, nil, Config{Epochs: 1, BatchSize: 1, LR: 0.01}); err == nil {
		t.Fatal("expected empty-dataset error")
	}
	for _, lr := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		want := fmt.Sprintf("train: learning rate %g", lr)
		if _, err := Fit(m, samples, Config{Epochs: 1, BatchSize: 1, LR: lr}); err == nil || err.Error() != want {
			t.Fatalf("Fit at learning rate %g = %v, want %q", lr, err, want)
		}
	}
}
