package pipeline

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"seaice/internal/dataset"
	"seaice/internal/raster"
)

// validShard is writeShard's encoding of a small, well-formed checkpoint.
func validShard(t testing.TB) []byte {
	t.Helper()
	tile := dataset.Tile{Original: raster.NewRGB(2, 2), Auto: raster.NewLabels(2, 2), CloudFraction: 0.25, Scene: 3}
	cp := &shardCheckpoint{Version: checkpointVersion, Key: "key", Scenes: []int{3}, Tiles: [][]dataset.Tile{{tile}}}
	var buf bytes.Buffer
	if err := writeShard(&buf, cp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// corruptShards are files every shard reader must refuse with
// ErrCorruptShard, derived from a valid encoding.
func corruptShards(valid []byte) map[string][]byte {
	withLen := func(n uint64, tail int) []byte {
		b := append([]byte(shardMagic), binary.BigEndian.AppendUint64(nil, n)...)
		return append(b, make([]byte, tail)...)
	}
	flipped := bytes.Clone(valid)
	flipped[len(flipped)/2] ^= 0x20
	return map[string][]byte{
		"empty":       {},
		"magic only":  []byte(shardMagic),
		"wrong magic": append([]byte("SEAICE-SHARD\x01"), valid[len(shardMagic):]...),
		// Eleven bytes after the magic: the length check's len−12 wrapped
		// and admitted a slice past the end.
		"length wraps":      withLen(^uint64(0), 3),
		"zero length":       withLen(0, 4),
		"length past end":   withLen(uint64(len(valid)), 8),
		"torn":              valid[:len(valid)/2],
		"bit-flipped body":  flipped,
		"truncated trailer": valid[:len(valid)-1],
	}
}

// verifyBytes writes b to a shard file in dir and scrubs it.
func verifyBytes(t *testing.T, dir string, b []byte) error {
	t.Helper()
	path := filepath.Join(dir, "shard-0000.gob")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := VerifyShardFile(path)
	return err
}

// TestCorruptShardFileRejected: every crafted file is a typed
// ErrCorruptShard, never a panic, and the valid encoding it was derived
// from verifies.
func TestCorruptShardFileRejected(t *testing.T) {
	dir := t.TempDir()
	valid := validShard(t)
	if err := verifyBytes(t, dir, valid); err != nil {
		t.Fatalf("valid shard: %v", err)
	}
	for name, b := range corruptShards(valid) {
		if err := verifyBytes(t, dir, b); !errors.Is(err, ErrCorruptShard) {
			t.Errorf("%s (%d bytes): %v, want ErrCorruptShard", name, len(b), err)
		}
	}
}

// FuzzVerifyShardFile: any file content either verifies — and is then
// exactly writeShard's encoding of what it decoded to — or fails with
// ErrCorruptShard. It never panics.
func FuzzVerifyShardFile(f *testing.F) {
	valid := validShard(f)
	f.Add(valid)
	for _, b := range corruptShards(valid) {
		f.Add(b)
	}
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, b []byte) {
		if err := verifyBytes(t, dir, b); err != nil {
			if !errors.Is(err, ErrCorruptShard) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		cp, err := readShard(filepath.Join(dir, "shard-0000.gob"))
		if err != nil {
			t.Fatalf("verified file does not read: %v", err)
		}
		var buf bytes.Buffer
		if err := writeShard(&buf, cp); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), b) {
			t.Fatalf("accepted %d bytes that are not writeShard's encoding of their contents", len(b))
		}
	})
}
