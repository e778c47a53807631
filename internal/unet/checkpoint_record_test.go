package unet

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"testing"
)

// fastCheckpoints renders FastConfig(1) as a float64, a float32 and a
// quantized checkpoint.
func fastCheckpoints(t testing.TB) map[string][]byte {
	t.Helper()
	m64, err := New[float64](FastConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	m32, err := New[float32](FastConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	cal, err := Calibrate(m64, calibTiles(4, 16, 1), 2)
	if err != nil {
		t.Fatal(err)
	}
	qm, err := Quantize(m64, cal)
	if err != nil {
		t.Fatal(err)
	}
	return map[string][]byte{
		"f64":  saved(t, m64.SaveFile),
		"f32":  saved(t, m32.SaveFile),
		"int8": saved(t, qm.SaveFile),
	}
}

// checkpointGoldens are the sha256 of fastCheckpoints' files on amd64.
var checkpointGoldens = map[string]string{
	"f64":  "21e72ba31580a3d6a875bc67f57393ac985219bac263d45f54d4994bb4707730",
	"f32":  "97529f1f381ec34c9f1e1cc378b097ea7276115d699c4c0f3179b53d4b5b0d4f",
	"int8": "0ee46ccbb9fea42ac5b1a952f4ce9de53ca1fd6de6e349120e7982bf68890050",
}

// stableChildDir names the environment variable under which the test
// binary, re-executed by TestCheckpointBytesStable, writes its
// checkpoints instead of testing.
const stableChildDir = "SEAICE_UNET_STABLE_DIR"

// TestCheckpointBytesStable: the same model saves to the same bytes in
// two separate processes (map iteration order differs between them), and
// on amd64 those bytes are the committed goldens.
func TestCheckpointBytesStable(t *testing.T) {
	files := fastCheckpoints(t)
	if dir := os.Getenv(stableChildDir); dir != "" {
		for name, b := range files {
			if err := os.WriteFile(filepath.Join(dir, name+".ckpt"), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return
	}
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=^TestCheckpointBytesStable$")
	cmd.Env = append(os.Environ(), stableChildDir+"="+dir)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("child process: %v\n%s", err, out)
	}
	for name, b := range files {
		child, err := os.ReadFile(filepath.Join(dir, name+".ckpt"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(child, b) {
			t.Errorf("%s: the two processes saved different bytes", name)
		}
		sum := sha256.Sum256(b)
		t.Logf("%s: %d bytes, sha256 %x", name, len(b), sum)
		if runtime.GOARCH == "amd64" && hex.EncodeToString(sum[:]) != checkpointGoldens[name] {
			t.Errorf("%s: sha256 %x, golden %s", name, sum, checkpointGoldens[name])
		}
	}
}

// TestCheckpointBitFlipsRefused sweeps every single-bit flip of a small
// float and a small quantized checkpoint: every loader refuses each one
// with ErrBadCheckpoint.
func TestCheckpointBitFlipsRefused(t *testing.T) {
	m, err := New[float64](Config{Depth: 1, BaseChannels: 1, InChannels: 3, Classes: 2, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	cal, err := Calibrate(m, calibTiles(2, 4, 3), 2)
	if err != nil {
		t.Fatal(err)
	}
	qm, err := Quantize(m, cal)
	if err != nil {
		t.Fatal(err)
	}
	for name, valid := range map[string][]byte{
		"float":     saved(t, m.SaveFile),
		"quantized": saved(t, qm.SaveFile),
	} {
		for bit := 0; bit < 8*len(valid); bit++ {
			b := bytes.Clone(valid)
			b[bit/8] ^= 1 << (bit % 8)
			if _, err := Load[float64](bytes.NewReader(b)); !errors.Is(err, ErrBadCheckpoint) {
				t.Fatalf("%s bit %d: Load = %v, want ErrBadCheckpoint", name, bit, err)
			}
			if _, err := LoadQuantized(bytes.NewReader(b)); !errors.Is(err, ErrBadCheckpoint) {
				t.Fatalf("%s bit %d: LoadQuantized = %v, want ErrBadCheckpoint", name, bit, err)
			}
		}
	}
}
