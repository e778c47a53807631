package ddp

import (
	"bytes"
	"testing"

	"seaice/internal/record"
)

// FuzzReadSnapshot drives the snapshot body decoder (the framing is
// FuzzRecord's) with adversarial bodies: it must never panic, and a body
// it accepts must be exactly the encoding of the snapshot it decoded to.
// Seeds are the encoder's output and its canonical corruptions.
func FuzzReadSnapshot(f *testing.F) {
	tr, err := New[float64](dropoutConfig(4), Config{Workers: 2, BatchPerWorker: 1, Epochs: 1, LR: 0.01})
	if err != nil {
		f.Fatal(err)
	}
	valid := tr.Snapshot(3).encode()
	with := func(mutate func(*Snapshot)) []byte {
		s := tr.Snapshot(3)
		mutate(s)
		return s.encode()
	}
	var huge record.Encoder
	huge.String("float64")
	huge.Int(1 << 40) // a key length past the body
	f.Add(valid)
	f.Add(valid[:len(valid)/2])          // truncated
	f.Add(append(bytes.Clone(valid), 0)) // trailing byte
	f.Add(huge.Body())                   // implausible length
	f.Add(with(func(s *Snapshot) { s.Step = -1 }))
	f.Add(with(func(s *Snapshot) { s.RNG = nil }))
	f.Add(with(func(s *Snapshot) { s.Opt.Master = [][]float64{{1, 2}} }))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, body []byte) {
		s, err := decodeSnapshot(body)
		if err != nil {
			return
		}
		if !bytes.Equal(s.encode(), body) {
			t.Fatalf("accepted %d bytes that are not the encoding of their contents", len(body))
		}
	})
}
