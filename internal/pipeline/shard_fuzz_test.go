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
	"seaice/internal/record"
)

// validShardCheckpoint is a small, well-formed shard.
func validShardCheckpoint() *shardCheckpoint {
	tile := dataset.Tile{Original: raster.NewRGB(2, 2), Auto: raster.NewLabels(2, 2), CloudFraction: 0.25, Scene: 3}
	return &shardCheckpoint{Key: "key", Scenes: []int{3}, Tiles: [][]dataset.Tile{{tile}}}
}

// validShard is the record of validShardCheckpoint.
func validShard(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := shardRecord.Write(&buf, validShardCheckpoint().encode()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// corruptShards are files every shard reader must refuse with
// ErrCorruptShard, derived from a valid encoding.
func corruptShards(valid []byte) map[string][]byte {
	magic := shardRecord.Magic
	withLen := func(n uint64, tail int) []byte {
		b := append([]byte(magic), binary.BigEndian.AppendUint64(nil, n)...)
		return append(b, make([]byte, tail)...)
	}
	flipped := bytes.Clone(valid)
	flipped[len(flipped)/2] ^= 0x20
	return map[string][]byte{
		"empty":       {},
		"magic only":  []byte(magic),
		"wrong magic": append([]byte("SEAICE-SHARD\x02"), valid[len(magic):]...),
		// Eleven bytes after the magic: a length check computing len−12
		// would wrap and admit a slice past the end.
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
	path := filepath.Join(dir, "shard-0000.rec")
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

// FuzzVerifyShardFile drives the shard body decoder (the framing is
// FuzzRecord's): any body either decodes — and is then exactly the
// encoding of what it decoded to — or fails. It never panics. Seeds are
// the encoder's output and its canonical corruptions.
func FuzzVerifyShardFile(f *testing.F) {
	valid := validShardCheckpoint().encode()
	body := func(build func(e *record.Encoder)) []byte {
		var e record.Encoder
		e.String("key")
		build(&e)
		return e.Body()
	}
	// oneTile is a shard of one scene whose first raster is w×h with n
	// samples, the rest absent.
	oneTile := func(w, h, n int) []byte {
		return body(func(e *record.Encoder) {
			e.Int(1)
			e.Int(0)
			e.Int(1)
			putRaster(e, w, h, make([]byte, n))
			for i := 0; i < 3; i++ {
				putRaster[byte](e, 0, 0, nil)
			}
			e.Float64(0)
			e.Int(0)
		})
	}
	f.Add(valid)
	f.Add([]byte{})
	f.Add(valid[:len(valid)/2])                             // truncated
	f.Add(append(bytes.Clone(valid), 0))                    // trailing byte
	f.Add(body(func(e *record.Encoder) {}))                 // no scene count
	f.Add(body(func(e *record.Encoder) { e.Int(0) }))       // no scenes
	f.Add(body(func(e *record.Encoder) { e.Int(1 << 40) })) // implausible scene count
	f.Add(oneTile(1, 1, 3))                                 // a 1×1 RGB and three absent rasters
	f.Add(oneTile(3, 3, 12))                                // dimensions that do not match the pixels
	f.Add(oneTile(-2, -2, 12))
	f.Add(oneTile(0, 0, 3)) // absent, yet with pixels

	f.Fuzz(func(t *testing.T, b []byte) {
		cp, err := decodeShard(b)
		if err != nil {
			return
		}
		if !bytes.Equal(cp.encode(), b) {
			t.Fatalf("accepted %d bytes that are not the encoding of their contents", len(b))
		}
	})
}

// TestShardBitFlipsRefused sweeps every single-bit flip of a shard file
// through the -verify-state scrub: each is refused with ErrCorruptShard.
func TestShardBitFlipsRefused(t *testing.T) {
	dir := t.TempDir()
	valid := validShard(t)
	for bit := 0; bit < 8*len(valid); bit++ {
		b := bytes.Clone(valid)
		b[bit/8] ^= 1 << (bit % 8)
		if err := verifyBytes(t, dir, b); !errors.Is(err, ErrCorruptShard) {
			t.Fatalf("bit %d of %d: %v, want ErrCorruptShard", bit, 8*len(valid), err)
		}
	}
}
