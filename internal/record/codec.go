package record

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Encoder appends body fields: fixed-width little-endian integers,
// IEEE-754 bit patterns, and length-prefixed strings and slices.
type Encoder struct{ buf []byte }

// Body returns the encoded fields.
func (e *Encoder) Body() []byte { return e.buf }

// Uint64 appends v as 8 little-endian bytes.
func (e *Encoder) Uint64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }

// Int appends v as a 64-bit two's-complement integer.
func (e *Encoder) Int(v int) { e.Uint64(uint64(int64(v))) }

// Byte appends one byte.
func (e *Encoder) Byte(v byte) { e.buf = append(e.buf, v) }

// Float64 appends v's IEEE-754 bit pattern.
func (e *Encoder) Float64(v float64) { e.Uint64(math.Float64bits(v)) }

// String appends a length-prefixed string.
func (e *Encoder) String(s string) {
	e.Int(len(s))
	e.buf = append(e.buf, s...)
}

// Bytes appends a length-prefixed byte slice.
func (e *Encoder) Bytes(b []byte) {
	e.Int(len(b))
	e.buf = append(e.buf, b...)
}

// Float64s appends a length-prefixed slice of exact bit patterns.
func (e *Encoder) Float64s(v []float64) {
	e.Int(len(v))
	e.buf = AppendScalars(e.buf, v)
}

// Decoder reads body fields back in the order they were written. The
// first failure sticks: later reads return zero values and Err reports
// it, so a format decodes its whole layout and checks once. Every count
// is bounded by the bytes left, so no length read from a body allocates
// more than the body holds.
type Decoder struct {
	buf []byte
	err error
}

// NewDecoder reads the fields of body.
func NewDecoder(body []byte) *Decoder { return &Decoder{buf: body} }

// Err reports the first failure.
func (d *Decoder) Err() error { return d.err }

// Fail records err unless a failure is already recorded; formats report
// their consistency checks through it.
func (d *Decoder) Fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// Done reports the first failure, or leftover bytes: a body is exactly
// one encoding of its fields.
func (d *Decoder) Done() error {
	if len(d.buf) > 0 {
		d.Fail(fmt.Errorf("record: %d bytes after the last field", len(d.buf)))
	}
	return d.err
}

// take consumes n bytes, or fails and returns nil.
func (d *Decoder) take(n int) []byte {
	if n > len(d.buf) {
		d.Fail(errors.New("record: body ends inside a field"))
	}
	if d.err != nil {
		return nil
	}
	b := d.buf[:n:n]
	d.buf = d.buf[n:]
	return b
}

// Uint64 reads 8 little-endian bytes.
func (d *Decoder) Uint64() uint64 {
	if b := d.take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// Int reads a 64-bit two's-complement integer.
func (d *Decoder) Int() int { return int(int64(d.Uint64())) }

// Byte reads one byte.
func (d *Decoder) Byte() byte {
	if b := d.take(1); b != nil {
		return b[0]
	}
	return 0
}

// Float64 reads an IEEE-754 bit pattern.
func (d *Decoder) Float64() float64 { return math.Float64frombits(d.Uint64()) }

// String reads a length-prefixed string.
func (d *Decoder) String() string { return string(d.Bytes()) }

// Count reads an element count and checks that that many elements of at
// least minSize bytes fit in the bytes left.
func (d *Decoder) Count(minSize int) int {
	if n := d.Int(); d.err == nil && n >= 0 && n <= len(d.buf)/minSize {
		return n
	}
	d.Fail(errors.New("record: count past the end of the body"))
	return 0
}

// Bytes reads a length-prefixed byte slice, aliasing the body.
func (d *Decoder) Bytes() []byte { return d.take(d.Count(1)) }

// Float64s reads a length-prefixed slice of bit patterns.
func (d *Decoder) Float64s() []float64 {
	n := d.Count(8)
	v, _ := Scalars(make([]float64, 0, n), d.take(8*n), n)
	return v
}

// AppendScalars appends src's exact little-endian IEEE-754 bit patterns.
func AppendScalars[S float32 | float64](dst []byte, src []S) []byte {
	switch s := any(src).(type) {
	case []float64:
		for _, v := range s {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
		}
	case []float32:
		for _, v := range s {
			dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(v))
		}
	}
	return dst
}

// ScalarSize reports the encoded bytes per element of S.
func ScalarSize[S float32 | float64]() int {
	var z S
	if _, ok := any(z).(float32); ok {
		return 4
	}
	return 8
}

// Scalars appends the want elements src encodes, which must be all of it.
func Scalars[S float32 | float64](dst []S, src []byte, want int) ([]S, error) {
	size := ScalarSize[S]()
	if len(src) != want*size {
		return dst, fmt.Errorf("record: %d bytes for %d scalars of %d bytes", len(src), want, size)
	}
	switch any(dst).(type) {
	case []float64:
		for i := 0; i < want; i++ {
			dst = append(dst, S(math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))))
		}
	case []float32:
		for i := 0; i < want; i++ {
			dst = append(dst, S(math.Float32frombits(binary.LittleEndian.Uint32(src[4*i:]))))
		}
	}
	return dst, nil
}
