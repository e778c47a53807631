package record

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"
)

var testKind = Kind{Magic: "SEAICE-TEST\x07", MaxBody: 1 << 20}

func framed(t testing.TB, body []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := testKind.Write(&buf, body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// typed reports whether err is one of Read's typed failures.
func typed(err error) bool {
	return errors.Is(err, ErrMagic) || errors.Is(err, ErrVersion) || errors.Is(err, ErrCorrupt)
}

// FuzzRecord drives the framing with adversarial streams: Read must
// never panic, every failure must be typed, and a stream it accepts must
// be exactly Write's framing of the body it returned.
func FuzzRecord(f *testing.F) {
	valid := framed(f, []byte("a body of a few bytes"))
	withLen := func(n uint64, tail int) []byte {
		b := binary.BigEndian.AppendUint64([]byte(testKind.Magic), n)
		return append(b, make([]byte, tail)...)
	}
	flipped := bytes.Clone(valid)
	flipped[len(flipped)-1] ^= 1
	f.Add(valid)
	f.Add(framed(f, nil))
	f.Add([]byte{})
	f.Add([]byte(testKind.Magic[:5]))
	f.Add([]byte(testKind.Magic))
	f.Add(append([]byte("SEAICE-TEST\x06"), valid[len(testKind.Magic):]...))
	f.Add(append([]byte("SEAICE-TEXT\x07"), valid[len(testKind.Magic):]...))
	f.Add(withLen(^uint64(0), 3))
	f.Add(withLen(1<<20+1, 0))
	f.Add(withLen(64, 12))
	f.Add(valid[:len(valid)-1])
	f.Add(append(bytes.Clone(valid), 0))
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		body, err := testKind.Read(bytes.NewReader(data))
		if err != nil {
			if !typed(err) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		if !bytes.Equal(framed(t, body), data) {
			t.Fatalf("accepted %d bytes that are not the framing of their body", len(data))
		}
	})
}

// TestRecordBitFlips: every single-bit flip of a record is refused — a
// flip in the magic text as ErrMagic, in the version byte as ErrVersion,
// anywhere else as ErrCorrupt.
func TestRecordBitFlips(t *testing.T) {
	valid := framed(t, []byte("sixteen bytes ok"))
	v := len(testKind.Magic) - 1
	for bit := 0; bit < 8*len(valid); bit++ {
		b := bytes.Clone(valid)
		b[bit/8] ^= 1 << (bit % 8)
		_, err := testKind.Read(bytes.NewReader(b))
		want := ErrCorrupt
		switch {
		case bit/8 < v:
			want = ErrMagic
		case bit/8 == v:
			want = ErrVersion
		}
		if !errors.Is(err, want) {
			t.Fatalf("bit %d: %v, want %v", bit, err, want)
		}
	}
}

// TestReadBoundsMemory: a header claiming a body far past the bytes
// present is refused without allocating what it claims.
func TestReadBoundsMemory(t *testing.T) {
	k := Kind{Magic: testKind.Magic, MaxBody: 1 << 32}
	data := binary.BigEndian.AppendUint64([]byte(k.Magic), 1<<32)
	allocs := testing.AllocsPerRun(1, func() {
		if _, err := k.Read(bytes.NewReader(data)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("got %v, want ErrCorrupt", err)
		}
	})
	if allocs > 20 {
		t.Fatalf("%v allocations for a %d-byte stream", allocs, len(data))
	}
}

// TestCodecRoundTrip: every field kind reads back exactly, including
// float bit patterns a float comparison would not tell apart.
func TestCodecRoundTrip(t *testing.T) {
	nan := math.Float64frombits(0x7ff8_0000_dead_beef)
	var e Encoder
	e.Uint64(1<<64 - 1)
	e.Int(-7)
	e.Byte(0xa5)
	e.Float64(math.Copysign(0, -1))
	e.String("name")
	e.String("\x01\x02\x03") // a length-prefixed string reads back as bytes too
	e.Float64s([]float64{1.5, nan})

	d := NewDecoder(e.Body())
	if d.Uint64() != 1<<64-1 || d.Int() != -7 || d.Byte() != 0xa5 {
		t.Fatal("integers differ")
	}
	if got := d.Float64(); math.Float64bits(got) != 1<<63 {
		t.Fatalf("−0 read back as %v", got)
	}
	if d.String() != "name" || !bytes.Equal(d.Bytes(), []byte{1, 2, 3}) {
		t.Fatal("string or bytes differ")
	}
	if v := d.Float64s(); len(v) != 2 || v[0] != 1.5 || math.Float64bits(v[1]) != math.Float64bits(nan) {
		t.Fatalf("floats read back as %v", v)
	}
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}
}

// TestDecoderSticky: a count past the bytes left fails without
// allocating it, the failure sticks, and Done reports leftover bytes.
func TestDecoderSticky(t *testing.T) {
	var e Encoder
	e.Int(1 << 40)
	d := NewDecoder(e.Body())
	if v := d.Float64s(); len(v) != 0 || d.Err() == nil {
		t.Fatalf("count past the end read %d values, err %v", len(v), d.Err())
	}
	if d.Int() != 0 || d.String() != "" {
		t.Fatal("reads after a failure must return zero values")
	}

	e = Encoder{}
	e.Int(1)
	e.Int(2)
	d = NewDecoder(e.Body())
	d.Int()
	if err := d.Done(); err == nil {
		t.Fatal("Done accepted a body with a field left over")
	}
}

// TestWriteFile: the durable write sweeps stale temp files, calls
// beforeRename with the old file still in place, and the torn-write hook
// leaves a record Read refuses as ErrCorrupt.
func TestWriteFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.rec")
	stale := filepath.Join(dir, ".x.rec-123.tmp")
	if err := os.WriteFile(stale, []byte("left by a crash"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := testKind.WriteFile(path, []byte("first"), false, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("stale temp file survived: %v", err)
	}
	var before []byte
	if err := testKind.WriteFile(path, []byte("second"), false, func() {
		before, _ = testKind.ReadFile(path)
	}); err != nil {
		t.Fatal(err)
	}
	if string(before) != "first" {
		t.Fatalf("beforeRename saw %q, want the old record", before)
	}
	if body, err := testKind.ReadFile(path); err != nil || string(body) != "second" {
		t.Fatalf("read back %q, %v", body, err)
	}
	if err := testKind.WriteFile(path, []byte("torn record"), true, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := testKind.ReadFile(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("torn write read back as %v, want ErrCorrupt", err)
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(left) != 0 {
		t.Fatalf("temp files left behind: %v", left)
	}
}
