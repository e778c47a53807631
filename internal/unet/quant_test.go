package unet

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"seaice/internal/nn"
	"seaice/internal/noise"
	"seaice/internal/pool"
	"seaice/internal/raster"
	"seaice/internal/tensor"
)

// calibTiles renders deterministic pseudo-random tiles.
func calibTiles(n, size int, seed uint64) []*raster.RGB {
	rng := noise.NewRNG(seed, 0xca11)
	out := make([]*raster.RGB, n)
	for i := range out {
		img := raster.NewRGB(size, size)
		for p := range img.Pix {
			img.Pix[p] = uint8(rng.Uint64())
		}
		out[i] = img
	}
	return out
}

// quantModel builds a quantized model from a fresh random master.
func quantModel(t testing.TB, seed uint64) (*Model[float64], *QuantModel) {
	t.Helper()
	m, err := New[float64](FastConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	cal, err := Calibrate(m, calibTiles(6, 32, seed), 3)
	if err != nil {
		t.Fatal(err)
	}
	qm, err := Quantize(m, cal)
	if err != nil {
		t.Fatal(err)
	}
	return m, qm
}

// TestCalibrateDeterministic: calibration is a serial min/max sweep, so
// the observed ranges must be bit-identical at any pool worker count and
// any batch split.
func TestCalibrateDeterministic(t *testing.T) {
	m, err := New[float64](FastConfig(21))
	if err != nil {
		t.Fatal(err)
	}
	tiles := calibTiles(7, 32, 5)
	var want *Calibration
	defer pool.SetSharedWorkers(0)
	for _, workers := range []int{1, 3, 4} {
		pool.SetSharedWorkers(workers)
		for _, batch := range []int{1, 3, 7} {
			cal, err := Calibrate(m, tiles, batch)
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = cal
				// Sanity: every stage the quantizer needs was observed.
				for _, stage := range RequiredStages(m.Config()) {
					if _, ok := cal.Ranges[stage]; !ok {
						t.Fatalf("calibration missing stage %s; have %v", stage, cal.Stages())
					}
				}
				continue
			}
			if !reflect.DeepEqual(cal.Ranges, want.Ranges) {
				t.Fatalf("workers=%d batch=%d: calibration ranges differ:\n%v\nvs\n%v",
					workers, batch, cal.Ranges, want.Ranges)
			}
		}
	}
}

// TestCalibrateRejectsEmptyAndNaN covers the calibration error paths.
func TestCalibrateRejectsEmptyAndNaN(t *testing.T) {
	m, err := New[float64](FastConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Calibrate(m, nil, 4); err == nil {
		t.Fatal("expected error for empty tile set")
	}
	// Poison one weight to NaN: the calibration must name a stage rather
	// than silently producing NaN scales.
	w := m.WeightsF64()
	w["enc0.conv1.weight"][0] = nan()
	if err := m.SetWeightsF64(w); err != nil {
		t.Fatal(err)
	}
	_, err = Calibrate(m, calibTiles(1, 16, 1), 1)
	if err == nil || !strings.Contains(err.Error(), "NaN") {
		t.Fatalf("expected NaN stage error, got %v", err)
	}
}

func nan() float64 { z := 0.0; return z / z }

// TestQuantizeValidation: missing weights or activation stages, and
// corrupt scale tables, must fail with descriptive errors rather than
// building a silently broken model.
func TestQuantizeValidation(t *testing.T) {
	m, err := New[float64](FastConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	cal, err := Calibrate(m, calibTiles(2, 16, 9), 2)
	if err != nil {
		t.Fatal(err)
	}
	acts := cal.ActQuants()

	if _, err := buildQuant(m.Config(), m.WeightsF64(), acts); err != nil {
		t.Fatalf("intact inputs should quantize: %v", err)
	}

	missing := make(map[string]tensor.ActQuant, len(acts))
	for k, v := range acts {
		missing[k] = v
	}
	delete(missing, "dec1.conv2")
	if _, err := buildQuant(m.Config(), m.WeightsF64(), missing); err == nil || !strings.Contains(err.Error(), "dec1.conv2") {
		t.Fatalf("expected missing-stage error naming dec1.conv2, got %v", err)
	}

	bad := make(map[string]tensor.ActQuant, len(acts))
	for k, v := range acts {
		bad[k] = v
	}
	bad["up0"] = tensor.ActQuant{Scale: 0, Zero: 3}
	if _, err := buildQuant(m.Config(), m.WeightsF64(), bad); err == nil || !strings.Contains(err.Error(), "up0") {
		t.Fatalf("expected invalid-scale error naming up0, got %v", err)
	}

	weights := m.WeightsF64()
	delete(weights, "bottleneck.conv1.bias")
	if _, err := buildQuant(m.Config(), weights, acts); err == nil || !strings.Contains(err.Error(), "bottleneck.conv1.bias") {
		t.Fatalf("expected missing-weights error, got %v", err)
	}
}

// TestQuantSessionDeterministic: the quantized forward is fully integer,
// so labels must be bit-identical across pool worker counts, sessions,
// and batched-vs-single evaluation.
func TestQuantSessionDeterministic(t *testing.T) {
	_, qm := quantModel(t, 11)
	tiles := calibTiles(5, 32, 77)

	var want []*raster.Labels
	defer pool.SetSharedWorkers(0)
	for _, workers := range []int{1, 3, 4} {
		pool.SetSharedWorkers(workers)
		s := NewQuantSession(qm)
		got, err := s.PredictTiles(tiles)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
			// Batched and single-tile paths must also agree exactly.
			for i, tile := range tiles {
				single, err := s.PredictTiles([]*raster.RGB{tile})
				if err != nil {
					t.Fatal(err)
				}
				for p := range want[i].Pix {
					if single[0].Pix[p] != want[i].Pix[p] {
						t.Fatalf("tile %d pixel %d: single %d, batched %d", i, p, single[0].Pix[p], want[i].Pix[p])
					}
				}
			}
			continue
		}
		for i := range tiles {
			for p := range want[i].Pix {
				if got[i].Pix[p] != want[i].Pix[p] {
					t.Fatalf("workers=%d tile %d pixel %d: %d, want %d", workers, i, p, got[i].Pix[p], want[i].Pix[p])
				}
			}
		}
	}
}

// TestQuantSessionBufferReuse runs mixed batch shapes through one session
// to confirm the grow-only buffers do not leak state between calls. Every
// activation buffer keeps a zero-point halo that layers never rewrite, so
// before each call at a new shape the test scribbles over all of the
// session's storage: the reshape must re-establish every halo (plane 32² →
// 16² → 32², batch 4 → 1 → 4) for the labels to match a fresh session's.
func TestQuantSessionBufferReuse(t *testing.T) {
	_, qm := quantModel(t, 13)
	s := NewQuantSession(qm)
	prev := struct{ n, sz int }{}
	for _, shape := range []struct{ n, sz int }{
		{4, 32}, {4, 16}, {4, 32}, {1, 32}, {4, 32}, {4, 32}, {2, 16}, {1, 16},
	} {
		tiles := calibTiles(shape.n, shape.sz, uint64(shape.n*100+shape.sz))
		want, err := NewQuantSession(qm).PredictTiles(tiles) // fresh reference session every round
		if err != nil {
			t.Fatal(err)
		}
		if shape != prev {
			scribble(s)
		}
		prev = shape
		got, err := s.PredictTiles(tiles)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			for p := range want[i].Pix {
				if got[i].Pix[p] != want[i].Pix[p] {
					t.Fatalf("batch %dx%d tile %d pixel %d mismatch after reuse", shape.n, shape.sz, i, p)
				}
			}
		}
	}
}

// scribble overwrites every activation buffer of s, halos included, up to
// its capacity.
func scribble(s *QuantSession) {
	bufs := []*nn.QAct{&s.in}
	for i := range s.acts {
		bufs = append(bufs, &s.acts[i])
	}
	for _, b := range bufs {
		data := b.Data[:cap(b.Data)]
		for i := range data {
			data[i] = 0x55
		}
	}
}

// TestQuantSessionRejectsBadInput covers the validation paths.
func TestQuantSessionRejectsBadInput(t *testing.T) {
	_, qm := quantModel(t, 17)
	s := NewQuantSession(qm)
	if _, err := s.PredictTiles(nil); err == nil {
		t.Fatal("expected empty-batch error")
	}
	if _, err := s.PredictTiles(calibTiles(1, 12, 1)); err == nil {
		t.Fatal("expected divisibility error")
	}
	if _, err := s.PredictTiles([]*raster.RGB{raster.NewRGB(16, 16), raster.NewRGB(32, 32)}); err == nil {
		t.Fatal("expected mixed-size error")
	}
}

// TestQuantCheckpointRoundTrip: a version-3 save/load must rebuild a
// model with identical quantization tables and bit-identical
// predictions, and the embedded float64 master must survive unchanged.
func TestQuantCheckpointRoundTrip(t *testing.T) {
	m, qm := quantModel(t, 23)
	var buf bytes.Buffer
	if err := qm.Save(&buf); err != nil {
		t.Fatal(err)
	}
	saved := buf.Bytes()

	loaded, err := LoadQuantized(bytes.NewReader(saved))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(loaded.ActQuants(), qm.ActQuants()) {
		t.Fatal("activation tables differ after round trip")
	}
	tiles := calibTiles(3, 32, 55)
	want, err := NewQuantSession(qm).PredictTiles(tiles)
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewQuantSession(loaded).PredictTiles(tiles)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		for p := range want[i].Pix {
			if got[i].Pix[p] != want[i].Pix[p] {
				t.Fatalf("tile %d pixel %d differs after checkpoint round trip", i, p)
			}
		}
	}

	if !reflect.DeepEqual(loaded.WeightsF64(), m.WeightsF64()) {
		t.Fatal("embedded master weights differ after round trip")
	}
}

// TestLoadQuantizedTypedErrors pins the ErrBadCheckpoint contract across
// the quantized loader's refusal paths, including cross-version loads.
func TestLoadQuantizedTypedErrors(t *testing.T) {
	m, qm := quantModel(t, 29)
	var v3 bytes.Buffer
	if err := qm.Save(&v3); err != nil {
		t.Fatal(err)
	}
	var v2 bytes.Buffer
	if err := m.Save(&v2); err != nil {
		t.Fatal(err)
	}

	for name, data := range map[string][]byte{
		"float checkpoint":  v2.Bytes(),
		"malformed magic":   append([]byte("SEAICE-UNET-XKPT\x03"), v3.Bytes()[len(ckptMagicV3):]...),
		"truncated payload": v3.Bytes()[:len(v3.Bytes())-7],
		"empty":             nil,
		"garbage":           []byte("zeros and ones but not these ones"),
	} {
		if _, err := LoadQuantized(bytes.NewReader(data)); !errors.Is(err, ErrBadCheckpoint) {
			t.Errorf("%s: LoadQuantized = %v, want ErrBadCheckpoint", name, err)
		}
	}
	// A float loader pointed at a quantized file must refuse typedly too.
	if _, err := Load[float64](bytes.NewReader(v3.Bytes())); !errors.Is(err, ErrBadCheckpoint) {
		t.Errorf("Load[float64] on v3 = %v, want ErrBadCheckpoint", err)
	}
}

// TestEngineSeam: all three precision rungs present the same Engine
// surface with the right self-description.
func TestEngineSeam(t *testing.T) {
	m64, qm := quantModel(t, 19)
	m32, err := New[float32](FastConfig(19))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		e    Engine
		want string
	}{{m64, "f64"}, {m32, "f32"}, {qm, "int8"}} {
		if got := tc.e.Precision(); got != tc.want {
			t.Fatalf("precision %q, want %q", got, tc.want)
		}
		if got := tc.e.Config().Depth; got != 3 {
			t.Fatalf("%s config depth %d, want 3", tc.want, got)
		}
		if tc.e.NewPredictor() == nil {
			t.Fatalf("%s engine returned nil predictor", tc.want)
		}
	}
}
