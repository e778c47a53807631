package unet

import (
	"slices"
	"testing"

	"seaice/internal/nn"
	"seaice/internal/noise"
	"seaice/internal/raster"
	"seaice/internal/tensor"
)

// randInput builds a deterministic pseudo-random NCHW input.
func randInput(n, c, h, w int, seed uint64) *tensor.Tensor[float64] {
	x := tensor.New[float64](n, c, h, w)
	rng := noise.NewRNG(seed, 0xbeef)
	for i := range x.Data {
		x.Data[i] = rng.Float64()
	}
	return x
}

// TestSessionMatchesModel checks that the inference session reproduces
// the training-path forward exactly across configurations and batch
// sizes: identical argmax labels and logits within float tolerance.
func TestSessionMatchesModel(t *testing.T) {
	cases := []struct {
		name  string
		cfg   Config
		n, sz int
	}{
		{"fast-1x32", FastConfig(7), 1, 32},
		{"fast-4x32", FastConfig(7), 4, 32},
		{"fast-3x16", FastConfig(8), 3, 16},
		{"depth1-2x8", Config{Depth: 1, BaseChannels: 4, InChannels: 3, Classes: 3, DropoutRate: 0.1, Seed: 9}, 2, 8},
		{"depth2-min-8", Config{Depth: 2, BaseChannels: 4, InChannels: 3, Classes: 4, DropoutRate: 0, Seed: 10}, 2, 8},
		{"depth4-1x16", Config{Depth: 4, BaseChannels: 4, InChannels: 3, Classes: 3, DropoutRate: 0.2, Seed: 11}, 1, 16},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, err := New[float64](tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			x := randInput(tc.n, tc.cfg.InChannels, tc.sz, tc.sz, 42)
			want := m.Forward(x, false)
			s := NewSession(m)
			got, err := s.Forward(x)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got.Shape, want.Shape) {
				t.Fatalf("shape %v, want %v", got.Shape, want.Shape)
			}
			for i := range want.Data {
				d := got.Data[i] - want.Data[i]
				if d < -1e-9 || d > 1e-9 {
					t.Fatalf("logit %d: session %g, model %g", i, got.Data[i], want.Data[i])
				}
			}
			wantPred := nn.Predict(m.Forward(x, false))
			gotPred, err := s.Predict(x)
			if err != nil {
				t.Fatal(err)
			}
			for i := range wantPred {
				if gotPred[i] != wantPred[i] {
					t.Fatalf("pixel %d: session class %d, model class %d", i, gotPred[i], wantPred[i])
				}
			}
		})
	}
}

// TestSessionBufferReuse runs mixed batch shapes through one session to
// confirm the grow-only buffers do not leak state between calls.
func TestSessionBufferReuse(t *testing.T) {
	m, err := New[float64](FastConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	s := NewSession(m)
	for _, shape := range []struct{ n, sz int }{{4, 32}, {1, 32}, {2, 16}, {4, 32}} {
		x := randInput(shape.n, 3, shape.sz, shape.sz, uint64(shape.n*100+shape.sz))
		want := nn.Predict(m.Forward(x, false))
		got, err := s.Predict(x)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("batch %dx%d: pixel %d mismatch after reuse", shape.n, shape.sz, i)
			}
		}
	}
}

// TestSessionPredictTiles checks the raster-level batch API against the
// per-tile path.
func TestSessionPredictTiles(t *testing.T) {
	m, err := New[float64](FastConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	rng := noise.NewRNG(77, 0x7e57)
	tiles := make([]*raster.RGB, 5)
	for i := range tiles {
		img := raster.NewRGB(16, 16)
		for p := range img.Pix {
			img.Pix[p] = uint8(rng.Uint64())
		}
		tiles[i] = img
	}
	s := NewSession(m)
	got, err := s.PredictTiles(tiles)
	if err != nil {
		t.Fatal(err)
	}
	for i, img := range tiles {
		single, err := s.PredictTiles([]*raster.RGB{img})
		if err != nil {
			t.Fatal(err)
		}
		for p := range got[i].Pix {
			if got[i].Pix[p] != single[0].Pix[p] {
				t.Fatalf("tile %d pixel %d: batched %d, single %d", i, p, got[i].Pix[p], single[0].Pix[p])
			}
		}
	}
}

// TestSessionRejectsBadInput covers the session's validation paths.
func TestSessionRejectsBadInput(t *testing.T) {
	m, err := New[float64](FastConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	s := NewSession(m)
	if _, err := s.Forward(randInput(1, 2, 16, 16, 1)); err == nil {
		t.Fatal("expected channel-mismatch error")
	}
	if _, err := s.Forward(randInput(1, 3, 12, 12, 1)); err == nil {
		t.Fatal("expected divisibility error")
	}
	if _, err := s.PredictTiles(nil); err == nil {
		t.Fatal("expected empty-batch error")
	}
	if _, err := s.PredictTiles([]*raster.RGB{raster.NewRGB(16, 16), raster.NewRGB(8, 8)}); err == nil {
		t.Fatal("expected mixed-size error")
	}
}
