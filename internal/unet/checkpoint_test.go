package unet

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// saved returns the checkpoint file a model's SaveFile writes.
func saved(t testing.TB, saveFile func(path string) error) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "model.ckpt")
	if err := saveFile(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCheckpointParamsRoundTrip saves a model and reloads it, expecting
// every named parameter back bit-for-bit.
func TestCheckpointParamsRoundTrip(t *testing.T) {
	m, err := New[float64](FastConfig(21))
	if err != nil {
		t.Fatal(err)
	}
	got, err := Load[float64](bytes.NewReader(saved(t, m.SaveFile)))
	if err != nil {
		t.Fatal(err)
	}
	if got.Config() != m.Config() {
		t.Fatalf("config %+v, want %+v", got.Config(), m.Config())
	}
	a, b := m.Params(), got.Params()
	if len(a) != len(b) {
		t.Fatalf("param count %d, want %d", len(b), len(a))
	}
	for i := range a {
		if a[i].Name != b[i].Name {
			t.Fatalf("param %d name %q, want %q", i, b[i].Name, a[i].Name)
		}
		for j := range a[i].W.Data {
			if a[i].W.Data[j] != b[i].W.Data[j] {
				t.Fatalf("param %s[%d] differs after round trip", a[i].Name, j)
			}
		}
	}
}

// TestCheckpointFileRoundTrip exercises SaveFile/LoadFile and confirms
// the reloaded model predicts identically.
func TestCheckpointFileRoundTrip(t *testing.T) {
	m, err := New[float64](FastConfig(22))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "unet.ckpt")
	if err := m.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile[float64](path)
	if err != nil {
		t.Fatal(err)
	}
	x := randInput(1, 3, 16, 16, 5)
	want, err := NewSession(m).Predict(x)
	if err != nil {
		t.Fatal(err)
	}
	have, err := NewSession(got).Predict(x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if want[i] != have[i] {
			t.Fatalf("pixel %d: reloaded model predicts %d, original %d", i, have[i], want[i])
		}
	}
}

// TestLoadFileCorrupt makes sure damaged checkpoints come back as wrapped
// errors, not panics — the serving registry loads checkpoints at startup
// and must fail cleanly.
func TestLoadFileCorrupt(t *testing.T) {
	m, err := New[float64](FastConfig(23))
	if err != nil {
		t.Fatal(err)
	}
	full := saved(t, m.SaveFile)

	dir := t.TempDir()
	cases := map[string][]byte{
		"empty.ckpt":     {},
		"truncated.ckpt": full[:len(full)/2],
		"garbage.ckpt":   []byte("definitely not a gob stream"),
	}
	for name, data := range cases {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadFile[float64](path); err == nil {
			t.Errorf("%s: expected error, got nil", name)
		}
	}

	if _, err := LoadFile[float64](filepath.Join(dir, "missing.ckpt")); err == nil {
		t.Error("missing file: expected error, got nil")
	}
}
