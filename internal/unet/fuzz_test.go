package unet

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"seaice/internal/record"
	"seaice/internal/tensor"
)

// ckptConfig is the smallest config the checkpoint tests save: every
// plan step kind, a few hundred weights.
var ckptConfig = Config{Depth: 1, BaseChannels: 2, InChannels: 3, Classes: 3, Seed: 1}

// ckptModels returns a float model of ckptConfig and its quantization.
func ckptModels(t testing.TB) (*Model[float64], *QuantModel) {
	t.Helper()
	m, err := New[float64](ckptConfig)
	if err != nil {
		t.Fatal(err)
	}
	cal, err := Calibrate(m, calibTiles(2, 16, 3), 2)
	if err != nil {
		t.Fatal(err)
	}
	qm, err := Quantize(m, cal)
	if err != nil {
		t.Fatal(err)
	}
	return m, qm
}

// FuzzLoadCheckpoint drives the model body decoder (the framing is
// FuzzRecord's) with adversarial bodies. It must never panic; a body it
// accepts must be exactly encodeCheckpoint's encoding of what it decoded
// to, and must build a model without error — the decoder checked every
// parameter against the plan — and, when it holds an activation table,
// buildQuant must accept or refuse that table without panicking. Seeds
// are the encoder's output and its canonical corruptions.
func FuzzLoadCheckpoint(f *testing.F) {
	m, qm := ckptModels(f)
	float := encodeCheckpoint(m.cfg, m.WeightsF64(), nil)
	quant := encodeCheckpoint(qm.cfg, qm.weights, qm.acts)
	withActs := func(mutate func(map[string]tensor.ActQuant)) []byte {
		acts := make(map[string]tensor.ActQuant, len(qm.acts))
		for k, v := range qm.acts {
			acts[k] = v
		}
		mutate(acts)
		return encodeCheckpoint(qm.cfg, qm.weights, acts)
	}
	withConfig := func(mutate func(*Config)) []byte {
		cfg := m.cfg
		mutate(&cfg)
		return encodeCheckpoint(cfg, m.WeightsF64(), nil)
	}

	f.Add(float)
	f.Add(quant)
	f.Add([]byte{})
	f.Add(float[:6*8])                   // config only
	f.Add(float[:len(float)/2])          // truncated weights
	f.Add(quant[:len(quant)-9])          // truncated activation table
	f.Add(append(bytes.Clone(float), 0)) // trailing byte
	f.Add(withConfig(func(c *Config) { c.Depth = 31 }))
	f.Add(withConfig(func(c *Config) { c.BaseChannels = 1 << 40 }))
	f.Add(withConfig(func(c *Config) { c.DropoutRate = math.NaN() }))
	f.Add(withConfig(func(c *Config) { c.Classes = 2 })) // head sized for 3
	f.Add(withActs(func(a map[string]tensor.ActQuant) {
		a["enc0.conv1"] = tensor.ActQuant{Scale: 0, Zero: 1} // zeroed scale
	}))
	f.Add(withActs(func(a map[string]tensor.ActQuant) {
		a["up0"] = tensor.ActQuant{Scale: math.Inf(1), Zero: 0} // blown scale
	}))
	f.Add(withActs(func(a map[string]tensor.ActQuant) {
		a["dec0.conv2"] = tensor.ActQuant{Scale: 0.01, Zero: 200} // zero-point out of [0,127]
	}))
	f.Add(withActs(func(a map[string]tensor.ActQuant) {
		a["enc0.conv2"] = tensor.ActQuant{Scale: 1e-300, Zero: 0} // requant multiplier past 2³⁰
	}))
	// A table claiming one stage where the plan has several.
	var e record.Encoder
	e.Int(1)
	f.Add(append(bytes.Clone(float[:len(float)-8]), e.Body()...))

	f.Fuzz(func(t *testing.T, body []byte) {
		ck, err := decodeCheckpoint(body)
		if err != nil {
			return
		}
		if !bytes.Equal(encodeCheckpoint(ck.cfg, ck.weights, ck.acts), body) {
			t.Fatalf("accepted %d bytes that are not the encoding of their contents", len(body))
		}
		m, err := New[float32](ck.cfg)
		if err == nil {
			err = m.SetWeightsF64(ck.weights)
		}
		if err != nil {
			t.Fatalf("decoded checkpoint does not build: %v", err)
		}
		if ck.acts != nil {
			buildQuant(ck.cfg, ck.weights, ck.acts)
		}
	})
}

// TestLoadTypedErrors pins the ErrBadCheckpoint contract on the
// canonical corruptions without needing the fuzz engine.
func TestLoadTypedErrors(t *testing.T) {
	m, err := New[float64](Config{Depth: 1, BaseChannels: 2, InChannels: 3, Classes: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	valid := saved(t, m.SaveFile)
	magic := ckptRecord.Magic

	bogusVersion := bytes.Clone(valid)
	bogusVersion[len(magic)-1] = 0x09

	for name, data := range map[string][]byte{
		"malformed magic": append([]byte("SEAICE-UNET-XKPT\x04"), valid[len(magic):]...),
		"truncated":       valid[:len(valid)-11],
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
