package unet

import (
	"bytes"
	"encoding/gob"
	"errors"
	"io"
	"math"
	"strings"
	"testing"

	"seaice/internal/tensor"
)

// FuzzLoadCheckpoint throws adversarial checkpoint streams at Load and
// asserts the contract: it never panics, and every failure is a typed
// error (ErrBadCheckpoint for malformed content, or a plain error for
// I/O) — so a corrupted checkpoint on a production node degrades into a
// diagnosable refusal, not a crash. Seeds cover the three canonical
// corruptions: malformed magic, truncated gob, bogus version/precision
// byte.
func FuzzLoadCheckpoint(f *testing.F) {
	// A genuine checkpoint to mutate from.
	m, err := New[float64](Config{Depth: 1, BaseChannels: 2, InChannels: 3, Classes: 3, Seed: 1})
	if err != nil {
		f.Fatal(err)
	}
	var good bytes.Buffer
	if err := m.Save(&good); err != nil {
		f.Fatal(err)
	}
	valid := good.Bytes()

	// Malformed magic.
	f.Add([]byte("SEAICE-UNET-XKPT\x02garbage"))
	// Truncated gob: header intact, payload cut mid-stream.
	f.Add(valid[:len(ckptMagic)+7])
	f.Add(valid[:len(valid)/2])
	// Bogus version/precision byte after the magic text.
	bogus := append([]byte(nil), valid...)
	bogus[len(ckptMagic)-1] = 0x7f
	f.Add(bogus)
	// Bare garbage (no header), empty, and magic-only streams.
	f.Add([]byte("not a checkpoint at all"))
	f.Add([]byte{})
	f.Add([]byte(ckptMagic))
	// A headerless gob with absurd claimed lengths.
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x7f, 0x01, 0x02})

	// Quantized (version 3) seeds. Start from a genuine quantized
	// checkpoint, then cover its canonical corruptions: corrupt scale
	// table, out-of-domain zero-point, missing stage, truncated payload.
	cal, err := Calibrate(m, calibTiles(2, 16, 3), 2)
	if err != nil {
		f.Fatal(err)
	}
	qm, err := Quantize(m, cal)
	if err != nil {
		f.Fatal(err)
	}
	var goodQ bytes.Buffer
	if err := qm.Save(&goodQ); err != nil {
		f.Fatal(err)
	}
	validQ := goodQ.Bytes()
	f.Add(validQ)
	f.Add(validQ[:len(ckptMagicV3)+5]) // truncated gob
	f.Add(validQ[:len(validQ)-9])      // truncated scale/zero-point table
	corruptActs := func(mutate func(map[string]tensor.ActQuant)) []byte {
		acts := make(map[string]tensor.ActQuant, len(qm.acts))
		for k, v := range qm.acts {
			acts[k] = v
		}
		mutate(acts)
		var buf bytes.Buffer
		buf.WriteString(ckptMagicV3)
		if err := gob.NewEncoder(&buf).Encode(checkpointV3{Config: m.Config(), Weights: m.WeightsF64(), Acts: acts}); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	f.Add(corruptActs(func(a map[string]tensor.ActQuant) {
		a["enc0.conv1"] = tensor.ActQuant{Scale: 0, Zero: 1} // zeroed scale
	}))
	f.Add(corruptActs(func(a map[string]tensor.ActQuant) {
		a["up0"] = tensor.ActQuant{Scale: math.Inf(1), Zero: 0} // blown scale
	}))
	f.Add(corruptActs(func(a map[string]tensor.ActQuant) {
		a["dec0.conv2"] = tensor.ActQuant{Scale: 0.01, Zero: 200} // zero-point out of [0,127]
	}))
	f.Add(corruptActs(func(a map[string]tensor.ActQuant) {
		delete(a, "bottleneck.conv2") // missing stage
	}))

	f.Fuzz(func(t *testing.T, data []byte) {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("Load panicked on %d-byte input: %v", len(data), r)
			}
		}()
		for _, load := range []func() error{
			func() error { _, err := Load[float64](bytes.NewReader(data)); return err },
			func() error { _, err := Load[float32](bytes.NewReader(data)); return err },
			func() error { _, err := LoadQuantized(bytes.NewReader(data)); return err },
		} {
			err := load()
			if err == nil {
				continue // a mutation may still be a valid checkpoint
			}
			// Every failure must be typed or an honest I/O error —
			// never an internal panic-turned-string.
			if !errors.Is(err, ErrBadCheckpoint) && !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, io.EOF) {
				if !strings.HasPrefix(err.Error(), "unet:") {
					t.Fatalf("untyped load error: %v", err)
				}
			}
		}
	})
}

// TestLoadTypedErrors pins the ErrBadCheckpoint contract on the three
// canonical corruptions without needing the fuzz engine.
func TestLoadTypedErrors(t *testing.T) {
	m, err := New[float64](Config{Depth: 1, BaseChannels: 2, InChannels: 3, Classes: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	var good bytes.Buffer
	if err := m.Save(&good); err != nil {
		t.Fatal(err)
	}
	valid := good.Bytes()

	bogusVersion := append([]byte(nil), valid...)
	bogusVersion[len(ckptMagic)-1] = 0x09

	for name, data := range map[string][]byte{
		"malformed magic": []byte("SEAICE-UNET-XKPT\x02" + string(valid[len(ckptMagic):])),
		"truncated gob":   valid[:len(valid)-11],
		"bogus version":   bogusVersion,
		"garbage":         []byte("ceci n'est pas un checkpoint"),
	} {
		if _, err := Load[float64](bytes.NewReader(data)); !errors.Is(err, ErrBadCheckpoint) {
			t.Errorf("%s: Load = %v, want ErrBadCheckpoint", name, err)
		}
	}

	// And the happy path still loads.
	if _, err := Load[float64](bytes.NewReader(valid)); err != nil {
		t.Fatalf("valid checkpoint failed to load: %v", err)
	}
}
