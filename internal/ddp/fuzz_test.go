package ddp

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// FuzzReadSnapshot drives the snapshot decoder — it reads files a crash
// may have torn or a disk may have flipped — with corrupted inputs
// (mirroring FuzzReadFrame and FuzzLoadCheckpoint): it must reject them
// with one of the two typed errors, never panic, and anything it
// accepts must round-trip through Write.
func FuzzReadSnapshot(f *testing.F) {
	tr, err := New[float64](dropoutConfig(4), Config{Workers: 2, BatchPerWorker: 1, Epochs: 1, LR: 0.01})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.Snapshot(3).Write(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	flipped := bytes.Clone(valid)
	flipped[len(flipped)/2] ^= 0x10
	f.Add(flipped)
	f.Add(valid[:len(valid)/2])                                             // truncated body
	f.Add(binary.BigEndian.AppendUint64([]byte(snapMagic), 1<<32))          // huge length, no body
	f.Add(binary.BigEndian.AppendUint64([]byte(snapMagic), 1<<40))          // implausible length
	f.Add(append([]byte("SEAICE-DDP-SNAP\x03"), valid[len(snapMagic):]...)) // wrong magic (older version byte)
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ReadSnapshot(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrBadSnapshot) && !errors.Is(err, ErrCorruptSnapshot) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		var out bytes.Buffer
		if err := s.Write(&out); err != nil {
			t.Fatalf("accepted snapshot does not re-encode: %v", err)
		}
		rt, err := ReadSnapshot(&out)
		if err != nil {
			t.Fatalf("re-encoded snapshot does not decode: %v", err)
		}
		if rt.Step != s.Step || rt.Key != s.Key || len(rt.RNG) != len(s.RNG) || len(rt.Weights) != len(s.Weights) {
			t.Fatalf("round trip changed the snapshot: step %d→%d, %d→%d RNG states", s.Step, rt.Step, len(s.RNG), len(rt.RNG))
		}
	})
}
