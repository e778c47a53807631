// Package ring implements the bandwidth-optimal ring all-reduce of
// Patarasuk & Yuan — the gradient-averaging algorithm Horovod uses and
// the paper relies on for distributed U-Net training ("for efficient
// inter-GPU communication, it utilizes a ring-based all-reduce algorithm,
// which has been demonstrated to be bandwidth optimal").
//
// The algorithm runs in two phases over p ranks arranged in a ring, with
// each rank's vector split into p chunks:
//
//   - reduce-scatter: p−1 steps; in step s, rank r sends chunk
//     (r−s) mod p to rank r+1 and accumulates the chunk arriving from
//     rank r−1. After the phase, rank r holds the fully reduced chunk
//     (r+1) mod p.
//   - all-gather: p−1 steps circulating the reduced chunks so every rank
//     ends with the complete reduced vector.
//
// Each rank transfers 2·(p−1)/p · n values in total, which is optimal.
// The schedule is written once, per rank, over a Link (AllReduceMeanRank);
// the in-process and TCP links are its two implementations. In process,
// ranks run as goroutines connected by channels; the implementation is a
// real concurrent all-reduce, not a simulation.
//
// Parallelism/bit-identity guarantees: the reduce schedule (which chunk
// a rank accumulates at which step) is a pure function of (rank count,
// vector length, chunk size), so floating-point accumulation order —
// and therefore every bit of the result — is identical across runs,
// across goroutine interleavings and across links, for either element
// precision (the ring is generic over Scalar; float32 gradients move
// half the bytes per hop).
package ring

import (
	"fmt"
	"math"
	"sync"
)

// Scalar is the element constraint: the ring reduces float32 gradient
// vectors (half the wire bytes per reduce) or float64 reference vectors.
// It matches tensor.Scalar; it is redeclared here so the communication
// substrate has no dependency on the tensor package.
type Scalar interface {
	float32 | float64
}

// DefaultChunk is the segment length, in elements, of a reduce whose
// caller passes chunk <= 0: 16Ki elements, 64 KiB of float32 (128 KiB of
// float64) per rank, so one hop's frame stays well under the transport's
// MaxFrame.
const DefaultChunk = 1 << 14

// Link is one rank's connection into the ring: the only part of the
// all-reduce that differs between the in-process and the TCP transport.
type Link[S Scalar] interface {
	// Hop sends send to the next rank and returns the recvLen values the
	// previous rank sent in the same hop. The returned slice is valid
	// until the next Hop.
	Hop(send []S, recvLen int) ([]S, error)
}

// AllReduceMeanRank is one rank's share of the ring all-reduce-mean of
// the world ranks' equal-length vectors: every rank calls it with its
// own link, rank and vec, and on success vec holds the element-wise
// mean. The vector is reduced in sequential segments of chunk elements
// (the whole vector when it is no longer; chunk <= 0 selects
// DefaultChunk), each by p−1 reduce-scatter and p−1 all-gather hops and
// a 1/p scale. Segments never share elements, so the segment length
// sets the frame size, not the result. A link error aborts the reduce
// and leaves vec partially reduced.
func AllReduceMeanRank[S Scalar](l Link[S], rank, world int, vec []S, chunk int) error {
	if world == 1 {
		return nil
	}
	if chunk <= 0 {
		chunk = DefaultChunk
	}
	for lo := 0; lo < len(vec); {
		seg := vec[lo : lo+min(chunk, len(vec)-lo)]
		if err := reduceSegment(l, rank, world, seg); err != nil {
			return err
		}
		lo += len(seg)
	}
	return nil
}

// reduceSegment runs the ring schedule over one segment split into p
// chunks, chunk c covering [c·m/p, (c+1)·m/p).
func reduceSegment[S Scalar](l Link[S], rank, p int, seg []S) error {
	m := len(seg)
	span := func(c int) []S {
		c = (c%p + p) % p
		return seg[c*m/p : (c+1)*m/p]
	}
	// reduce-scatter: after p−1 hops this rank holds the fully reduced
	// chunk (rank+1) mod p.
	for s := 0; s < p-1; s++ {
		acc := span(rank - s - 1)
		in, err := l.Hop(span(rank-s), len(acc))
		if err != nil {
			return err
		}
		for i, v := range in {
			acc[i] += v
		}
	}
	// all-gather: circulate the reduced chunks until every rank has all.
	for s := 0; s < p-1; s++ {
		dst := span(rank - s)
		in, err := l.Hop(span(rank+1-s), len(dst))
		if err != nil {
			return err
		}
		copy(dst, in)
	}
	inv := S(1) / S(p)
	for i := range seg {
		seg[i] *= inv
	}
	return nil
}

// chanLink is an in-process Link: a buffered channel to the next rank,
// the previous rank's channel, and send buffers used in rotation. The
// buffer of 1 lets every rank send before receiving, which is how
// hardware rings pipeline. Three buffers make the rotation safe: before
// the sender refills hop h's buffer at hop h+3, its send of hop h+2 has
// gone through, so the receiver has dequeued hop h+1 — which it does
// only after it finished reading hop h. With two, a sender could
// overwrite a hop its receiver is still reading.
type chanLink[S Scalar] struct {
	next chan<- []S
	prev <-chan []S
	bufs [3][]S
	hops int
}

// Hop implements Link.
func (c *chanLink[S]) Hop(send []S, recvLen int) ([]S, error) {
	buf := c.bufs[c.hops%len(c.bufs)][:len(send)]
	c.hops++
	copy(buf, send)
	c.next <- buf
	return <-c.prev, nil
}

// AllReduceMean averages the ranks' vectors in place in one segment:
// vectors[r] is rank r's input and, on return, every vector holds the
// element-wise mean — the gradient-averaging step of synchronous
// data-parallel SGD.
func AllReduceMean[S Scalar](vectors [][]S) error {
	return AllReduceMeanChunked(vectors, math.MaxInt)
}

// sendBufPools keep the channel links' send buffers from one in-process
// reduce to the next, so a steady-state reduce allocates none; one pool
// per element type.
var sendBufPools [2]sync.Pool

func sendBufPool[S Scalar]() *sync.Pool {
	var z S
	if _, ok := any(z).(float32); ok {
		return &sendBufPools[0]
	}
	return &sendBufPools[1]
}

// AllReduceMeanChunked averages the ranks' vectors in place, segmenting
// them as AllReduceMeanRank does: one goroutine per rank runs the shared
// schedule over channel links. All vectors must share one length; it
// blocks until every rank finishes.
func AllReduceMeanChunked[S Scalar](vectors [][]S, chunk int) error {
	p := len(vectors)
	if p == 0 {
		return fmt.Errorf("ring: no ranks")
	}
	n := len(vectors[0])
	for r, v := range vectors {
		if len(v) != n {
			return fmt.Errorf("ring: rank %d has %d values, rank 0 has %d", r, len(v), n)
		}
	}
	if p == 1 || n == 0 {
		return nil
	}
	if chunk <= 0 {
		chunk = DefaultChunk
	}
	width := (min(n, chunk) + p - 1) / p // the longest chunk of any segment
	links := make([]chanLink[S], p)
	need := p * len(links[0].bufs) * width
	pool := sendBufPool[S]()
	held, _ := pool.Get().(*[]S)
	if held == nil || len(*held) < need {
		b := make([]S, need)
		held = &b
	}
	defer pool.Put(held)
	bufs := *held
	for r := range links {
		l := &links[r]
		ch := make(chan []S, 1)
		l.next, links[(r+1)%p].prev = ch, ch
		for b := range l.bufs {
			l.bufs[b], bufs = bufs[:width:width], bufs[width:]
		}
	}
	var wg sync.WaitGroup
	wg.Add(p)
	for r := range links {
		go func() {
			defer wg.Done()
			AllReduceMeanRank(&links[r], r, p, vectors[r], chunk) // a chanLink never fails
		}()
	}
	wg.Wait()
	return nil
}

// Broadcast copies rank 0's vector to every other rank (Horovod's
// BroadcastGlobalVariables at training start).
func Broadcast[S Scalar](vectors [][]S) error {
	if len(vectors) == 0 {
		return fmt.Errorf("ring: no ranks")
	}
	src := vectors[0]
	for r := 1; r < len(vectors); r++ {
		if len(vectors[r]) != len(src) {
			return fmt.Errorf("ring: rank %d has %d values, rank 0 has %d", r, len(vectors[r]), len(src))
		}
		copy(vectors[r], src)
	}
	return nil
}
