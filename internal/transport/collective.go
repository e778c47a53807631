package transport

import (
	"encoding/binary"
	"fmt"
	"math"

	"seaice/internal/ring"
)

// AllReduceMean averages the ranks' vectors in place over the network
// ring: ring.AllReduceMeanRank's schedule over this rank's TCP link, the
// same function the in-process ring runs. Scalars travel as exact
// IEEE-754 bit patterns, so every result bit matches the in-process
// transport (chunk <= 0 selects ring.DefaultChunk).
func AllReduceMean[S ring.Scalar](r *Ring, vec []S, chunk int) error {
	return ring.AllReduceMeanRank(&netLink[S]{r: r}, r.rank, r.world, vec, chunk)
}

// netLink is a Ring as a ring.Link: one data frame out to the next
// rank and one in from the previous per hop, encoded by putScalars and
// getScalars into buffers reused across hops.
type netLink[S ring.Scalar] struct {
	r   *Ring
	out []byte
	in  []S
}

// Hop implements ring.Link; a payload of the wrong size is the previous
// rank's fault.
func (l *netLink[S]) Hop(send []S, recvLen int) ([]S, error) {
	l.out = putScalars(l.out[:0], send)
	payload, err := l.r.hop(l.out)
	if err != nil {
		return nil, err
	}
	if l.in, err = getScalars(l.in[:0], payload, recvLen); err != nil {
		return nil, l.r.prevErr(err)
	}
	return l.in, nil
}

// bcastMaxElems bounds a broadcast frame's element count so the payload
// (8-byte header + scalars) stays under MaxFrame.
func bcastMaxElems[S ring.Scalar]() int {
	return (1<<20 - 8) / scalarSize[S]()
}

// Broadcast copies rank 0's vector to every rank by forwarding it
// around the ring in MaxFrame-bounded pieces: rank 0 sends, ranks
// 1..p−2 receive-store-forward, rank p−1 receives. Bytes are exact bit
// patterns, so the copy is bit-identical to ring.Broadcast.
func Broadcast[S ring.Scalar](r *Ring, vec []S) error {
	if r.world == 1 || len(vec) == 0 {
		return nil
	}
	maxElems := bcastMaxElems[S]()
	var buf []byte
	var in []S
	for lo := 0; lo < len(vec); lo += maxElems {
		hi := lo + maxElems
		if hi > len(vec) {
			hi = len(vec)
		}
		piece := vec[lo:hi]
		if r.rank != 0 {
			payload, err := r.recvData()
			if err != nil {
				return err
			}
			if in, err = getScalars(in[:0], payload, len(piece)); err != nil {
				return r.prevErr(err)
			}
			copy(piece, in)
		}
		if r.rank != r.world-1 {
			buf = putScalars(buf[:0], piece)
			if err := r.sendData(buf); err != nil {
				return err
			}
		}
	}
	return nil
}

// scalarSize reports the wire bytes per element.
func scalarSize[S ring.Scalar]() int {
	var z S
	if _, ok := any(z).(float32); ok {
		return 4
	}
	return 8
}

// putScalars appends src's exact little-endian IEEE-754 bit patterns.
func putScalars[S ring.Scalar](dst []byte, src []S) []byte {
	switch s := any(src).(type) {
	case []float64:
		var b [8]byte
		for _, v := range s {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			dst = append(dst, b[:]...)
		}
	case []float32:
		var b [4]byte
		for _, v := range s {
			binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
			dst = append(dst, b[:]...)
		}
	}
	return dst
}

// getScalars appends exactly want decoded elements from src.
func getScalars[S ring.Scalar](dst []S, src []byte, want int) ([]S, error) {
	size := scalarSize[S]()
	if len(src) != want*size {
		return dst, fmt.Errorf("transport: %d payload bytes for %d scalars of %d bytes", len(src), want, size)
	}
	switch any(dst).(type) {
	case []float64:
		for i := 0; i < want; i++ {
			v := math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
			dst = append(dst, S(v))
		}
	case []float32:
		for i := 0; i < want; i++ {
			v := math.Float32frombits(binary.LittleEndian.Uint32(src[4*i:]))
			dst = append(dst, S(v))
		}
	}
	return dst, nil
}

// Collective adapts a Ring to ring.Collective, making the network
// transport a drop-in replacement for the in-process ring.Local in the
// distributed trainer.
type Collective[S ring.Scalar] struct {
	R *Ring
}

// Rank implements ring.Collective.
func (c *Collective[S]) Rank() int { return c.R.Rank() }

// World implements ring.Collective.
func (c *Collective[S]) World() int { return c.R.World() }

// StepStart implements ring.Collective.
func (c *Collective[S]) StepStart(step int) { c.R.StepStart(step) }

// AllReduceMean implements ring.Collective.
func (c *Collective[S]) AllReduceMean(vec []S, chunk int) error {
	return AllReduceMean(c.R, vec, chunk)
}

// Broadcast implements ring.Collective.
func (c *Collective[S]) Broadcast(vec []S) error { return Broadcast(c.R, vec) }

// Commit implements ring.Collective.
func (c *Collective[S]) Commit(step int) error { return c.R.Commit(step) }

// Reestablish implements ring.Collective.
func (c *Collective[S]) Reestablish(step int) (int, error) { return c.R.Establish(step) }

// Close implements ring.Collective.
func (c *Collective[S]) Close() error { return c.R.Close() }
