package unet

import (
	"bytes"
	"encoding/gob"
	"errors"
	"strings"
	"testing"
)

// legacyEncode writes the pre-header bare-gob format — what checkpoint
// files looked like before the versioned header existed.
func legacyEncode(t *testing.T, m *Model[float64]) []byte {
	t.Helper()
	ck := struct {
		Config  Config
		Weights map[string][]float64
	}{Config: m.cfg, Weights: m.WeightsF64()}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(ck); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLegacyCheckpointRefused: a bare-gob checkpoint (no magic header) is
// not a format Load reads; it is refused with ErrBadCheckpoint at either
// precision. Rounding float64 weights into a float32 model on load is
// covered by TestCrossPrecisionCheckpointLoad.
func TestLegacyCheckpointRefused(t *testing.T) {
	m, err := New[float64](FastConfig(31))
	if err != nil {
		t.Fatal(err)
	}
	legacy := legacyEncode(t, m)

	if _, err := Load[float64](bytes.NewReader(legacy)); !errors.Is(err, ErrBadCheckpoint) {
		t.Errorf("bare gob → float64: %v, want ErrBadCheckpoint", err)
	}
	if _, err := Load[float32](bytes.NewReader(legacy)); !errors.Is(err, ErrBadCheckpoint) {
		t.Errorf("bare gob → float32: %v, want ErrBadCheckpoint", err)
	}
}

// TestF32CheckpointRoundTrip: every float32 value is exactly representable
// in the file's float64 storage, so a float32 model round-trips
// bit-for-bit through Save/Load.
func TestF32CheckpointRoundTrip(t *testing.T) {
	m, err := New[float32](FastConfig(32))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), ckptMagic) {
		t.Fatal("versioned checkpoint must start with the magic header")
	}
	got, err := Load[float32](&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range m.Params() {
		for j, w := range p.W.Data {
			if got.Params()[i].W.Data[j] != w {
				t.Fatalf("f32 round trip: %s[%d] differs", p.Name, j)
			}
		}
	}
}

// TestCrossPrecisionCheckpointLoad: a versioned float64 checkpoint loads
// into a float32 model (down-converted) and a float32 checkpoint loads
// into a float64 model (exactly widened).
func TestCrossPrecisionCheckpointLoad(t *testing.T) {
	m64, err := New[float64](FastConfig(33))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m64.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m32, err := Load[float32](bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("v2 f64 → f32: %v", err)
	}
	for i, p := range m64.Params() {
		for j, w := range p.W.Data {
			if m32.Params()[i].W.Data[j] != float32(w) {
				t.Fatalf("f64→f32: %s[%d] not the rounded weight", p.Name, j)
			}
		}
	}

	var buf32 bytes.Buffer
	if err := m32.Save(&buf32); err != nil {
		t.Fatal(err)
	}
	back, err := Load[float64](&buf32)
	if err != nil {
		t.Fatalf("v2 f32 → f64: %v", err)
	}
	for i, p := range m32.Params() {
		for j, w := range p.W.Data {
			if back.Params()[i].W.Data[j] != float64(w) {
				t.Fatalf("f32→f64: %s[%d] not exactly widened", p.Name, j)
			}
		}
	}
}
