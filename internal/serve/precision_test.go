package serve

import (
	"errors"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"seaice/internal/raster"
	"seaice/internal/unet"
)

// testQuantModel calibrates and quantizes a small deterministic master.
func testQuantModel(t testing.TB, seed uint64) *unet.QuantModel {
	t.Helper()
	m := testModel(t, seed)
	cal, err := unet.Calibrate(m, testTiles(6, 32, seed+0x9e37), 3)
	if err != nil {
		t.Fatal(err)
	}
	qm, err := unet.Quantize(m, cal)
	if err != nil {
		t.Fatal(err)
	}
	return qm
}

// TestParsePrecision pins the canonical names, the spelled-out aliases,
// and the typed rejection with its exact message.
func TestParsePrecision(t *testing.T) {
	for in, want := range map[string]string{
		"f64": "f64", "float64": "f64", "F64": "f64", " f64\t": "f64",
		"f32": "f32", "float32": "f32", "Float32": "f32",
		"int8": "int8", "INT8": "int8",
	} {
		got, err := ParsePrecision(in)
		if err != nil || got != want {
			t.Errorf("ParsePrecision(%q) = %q, %v; want %q", in, got, err, want)
		}
	}
	for _, bad := range []string{"", "f16", "int4", "uint8", "half"} {
		_, err := ParsePrecision(bad)
		var upe *UnknownPrecisionError
		if !errors.As(err, &upe) {
			t.Errorf("ParsePrecision(%q) = %v, want *UnknownPrecisionError", bad, err)
			continue
		}
		if upe.Precision != bad {
			t.Errorf("ParsePrecision(%q) carried %q", bad, upe.Precision)
		}
	}
	_, err := ParsePrecision("f16")
	const want = `serve: unknown precision "f16" (valid: f64, f32, int8)`
	if err == nil || err.Error() != want {
		t.Errorf("message %v, want %q", err, want)
	}
}

// TestRegistryRejectsUnknownPrecision checks Load refuses an unknown
// precision with the typed error before touching the file, leaving the
// registry empty.
func TestRegistryRejectsUnknownPrecision(t *testing.T) {
	r := NewRegistry()
	err := r.Load("m", filepath.Join(t.TempDir(), "never-created.ckpt"), "f16")
	var upe *UnknownPrecisionError
	if !errors.As(err, &upe) || upe.Precision != "f16" {
		t.Fatalf("Load = %v, want *UnknownPrecisionError{f16}", err)
	}
	if n := r.Names(); len(n) != 0 {
		t.Fatalf("registry not empty after rejected load: %v", n)
	}
}

// TestRegistryMixedPrecision loads one quantized checkpoint at all
// three precision rungs into a single registry — int8 from the calibrated
// tables, f64/f32 from the embedded master — warms it, and checks that
// int8 predictions served through the concurrent micro-batching scheduler
// are bit-identical to a direct single-tile session over the same engine.
func TestRegistryMixedPrecision(t *testing.T) {
	path := filepath.Join(t.TempDir(), "q.ckpt")
	qm := testQuantModel(t, 5)
	if err := qm.SaveFile(path); err != nil {
		t.Fatal(err)
	}

	r := NewRegistry()
	for name, prec := range map[string]string{"i": "int8", "s": "f32", "d": "f64"} {
		if err := r.Load(name, path, prec); err != nil {
			t.Fatalf("Load(%s): %v", prec, err)
		}
	}
	if err := r.Warm(32); err != nil {
		t.Fatalf("warm: %v", err)
	}
	for name, prec := range map[string]string{"i": "int8", "s": "f32", "d": "f64"} {
		e, err := r.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if e.Precision() != prec {
			t.Fatalf("model %q serves %q, want %q", name, e.Precision(), prec)
		}
	}

	// A float checkpoint must not serve as int8.
	fpath := filepath.Join(t.TempDir(), "f.ckpt")
	if err := testModel(t, 5).SaveFile(fpath); err != nil {
		t.Fatal(err)
	}
	if err := r.Load("nope", fpath, "int8"); !errors.Is(err, unet.ErrBadCheckpoint) {
		t.Fatalf("float checkpoint loaded as int8: %v", err)
	}

	eInt8, err := r.Get("i")
	if err != nil {
		t.Fatal(err)
	}
	eF32, err := r.Get("s")
	if err != nil {
		t.Fatal(err)
	}

	tiles := testTiles(12, 32, 77)
	want := make([]*raster.Labels, len(tiles))
	direct := eInt8.NewPredictor()
	for i, img := range tiles {
		out, err := direct.PredictTiles([]*raster.RGB{img})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = out[0]
	}

	cfg := DefaultConfig()
	cfg.TileSize = 32
	cfg.CacheSize = 0
	cfg.Workers = 3
	sched := NewScheduler(cfg, nil)
	defer sched.Close()

	var wg sync.WaitGroup
	got := make([][]*raster.Labels, len(tiles))
	errs := make([]error, 2*len(tiles))
	for i, img := range tiles {
		wg.Add(2)
		go func(i int, img *raster.RGB) {
			defer wg.Done()
			got[i], errs[2*i] = sched.SubmitTiles(eInt8, []*raster.RGB{img}, time.Time{})
		}(i, img)
		// Interleave f32 traffic so micro-batches must split by engine.
		go func(i int, img *raster.RGB) {
			defer wg.Done()
			_, errs[2*i+1] = sched.SubmitTiles(eF32, []*raster.RGB{img}, time.Time{})
		}(i, img)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := range tiles {
		if !reflect.DeepEqual(got[i][0].Pix, want[i].Pix) {
			t.Fatalf("tile %d: scheduled int8 prediction differs from direct session", i)
		}
	}
}
