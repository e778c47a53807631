// Package transport is the real multi-node network layer under the ring
// collectives: a length-prefixed TCP message protocol (framed read/write
// with deadlines, dial retry with backoff, peer identification) plus a
// rendezvous/handshake that assembles p processes into the same
// unidirectional ring the in-process implementation uses. AllReduceMean
// runs ring.AllReduceMeanRank — the one reduce schedule — with the
// socket pair as its link, and Broadcast forwards exact bit patterns, so
// a multi-process run is bit-identical to the in-process one and the two
// transports are interchangeable behind ring.Collective.
//
// Failure mapping: any connection error — a peer crash, an injected
// partition, a dropped frame timing out a read — surfaces as
// *ring.RankError naming the neighbor, exactly the signal the ddp
// trainer's recovery loop already handles. The caller rewinds its step
// state, calls Reestablish (tear down, re-dial/re-accept, agree on the
// minimum outstanding step), and retries; the commit barrier guarantees
// no rank's committed history diverges by more than one step, so a
// boundary snapshot pair is always enough to roll back.
//
// Wire format (all integers big-endian):
//
//	frame  := [length:4][tag:1][payload:length-5][crc32c:4]
//	hello  := [magic:4][rank:4][world:4][cidLen:2][clusterID]
//	sync   := [step:4]            (Establish step agreement, ring min)
//	commit := [step:4]            (end-of-step barrier token)
//	data   := [step:4][seq:4][scalar bytes, little-endian IEEE-754]
//
// length counts the tag byte and the 4-byte CRC32C (Castagnoli) trailer,
// computed over tag+payload with record.Checksum (the one CRC32C table;
// the on-disk records share it, not this framing — a frame is a tagged
// message on a live stream, a record a versioned file) and verified by
// ReadFrame before the frame
// is surfaced — a flipped bit anywhere in flight fails the check and is
// reported as an error, never as silently corrupt data; the caller maps
// it to *ring.RankError and the step retries. Frames above MaxFrame are
// rejected before allocation, so a corrupt or malicious length prefix
// cannot balloon memory (fuzzed in FuzzReadFrame).
package transport

import (
	"encoding/binary"
	"fmt"
	"io"

	"seaice/internal/record"
)

// MaxFrame is the maximum frame length (tag + payload) the decoder
// accepts: 1 MiB + 16 bytes of header slack, comfortably above the
// largest collective hop (a DefaultChunk segment is ≤128 KiB of float64)
// while keeping a corrupt length prefix from allocating gigabytes.
const MaxFrame = 1<<20 + 16

// Frame tags.
const (
	tagHello  = 0x01 // rendezvous handshake: identity + cluster check
	tagSync   = 0x02 // Establish step agreement (ring min-reduction)
	tagCommit = 0x03 // end-of-step commit barrier token
	tagData   = 0x04 // collective payload chunk
)

// helloMagic identifies the protocol ("SeaIce Ring 1"); a peer speaking
// anything else is rejected at handshake.
var helloMagic = [4]byte{'S', 'I', 'R', '1'}

// Frame is one decoded protocol message.
type Frame struct {
	Tag     byte
	Payload []byte
}

// crcTrailer is the size of the CRC32C integrity trailer every frame
// carries after its payload.
const crcTrailer = 4

// WriteFrame encodes one frame to w: 4-byte length prefix, tag, payload,
// and a CRC32C trailer over tag+payload.
func WriteFrame(w io.Writer, tag byte, payload []byte) error {
	n := 1 + len(payload) + crcTrailer
	if n > MaxFrame {
		return fmt.Errorf("transport: frame of %d bytes exceeds MaxFrame %d", n, MaxFrame)
	}
	hdr := [5]byte{}
	binary.BigEndian.PutUint32(hdr[:4], uint32(n))
	hdr[4] = tag
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	crc := record.Checksum(0, hdr[4:5])
	if len(payload) > 0 {
		if _, err := w.Write(payload); err != nil {
			return err
		}
		crc = record.Checksum(crc, payload)
	}
	var trailer [crcTrailer]byte
	binary.BigEndian.PutUint32(trailer[:], crc)
	_, err := w.Write(trailer[:])
	return err
}

// encodeFrame renders one complete frame — length prefix, tag, payload,
// CRC32C trailer — into a fresh buffer. The bitflip injector uses it to
// corrupt an already-checksummed frame the way the wire would.
func encodeFrame(tag byte, payload []byte) []byte {
	n := 1 + len(payload) + crcTrailer
	buf := make([]byte, 4+n)
	binary.BigEndian.PutUint32(buf[:4], uint32(n))
	buf[4] = tag
	copy(buf[5:], payload)
	crc := record.Checksum(0, buf[4:4+n-crcTrailer])
	binary.BigEndian.PutUint32(buf[4+n-crcTrailer:], crc)
	return buf
}

// ReadFrame decodes one frame from r, rejecting undersized or oversized
// lengths before any payload allocation and verifying the CRC32C
// trailer before surfacing the payload — corruption anywhere in the
// frame body comes back as an error, never as silently wrong bytes.
func ReadFrame(r io.Reader) (Frame, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Frame{}, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n < 1+crcTrailer {
		return Frame{}, fmt.Errorf("transport: frame of %d bytes lacks tag+CRC trailer", n)
	}
	if n > MaxFrame {
		return Frame{}, fmt.Errorf("transport: frame of %d bytes exceeds MaxFrame %d", n, MaxFrame)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return Frame{}, err
	}
	body := buf[:n-crcTrailer]
	want := binary.BigEndian.Uint32(buf[n-crcTrailer:])
	if got := record.Checksum(0, body); got != want {
		return Frame{}, fmt.Errorf("transport: frame CRC mismatch (got %08x, want %08x): corrupt frame", got, want)
	}
	return Frame{Tag: body[0], Payload: body[1:]}, nil
}

// hello is the decoded handshake payload.
type hello struct {
	Rank    int
	World   int
	Cluster string
}

// encodeHello builds a hello payload for the given identity.
func encodeHello(rank, world int, cluster string) []byte {
	if len(cluster) > 1<<15 {
		cluster = cluster[:1<<15]
	}
	buf := make([]byte, 4+4+4+2+len(cluster))
	copy(buf[:4], helloMagic[:])
	binary.BigEndian.PutUint32(buf[4:8], uint32(rank))
	binary.BigEndian.PutUint32(buf[8:12], uint32(world))
	binary.BigEndian.PutUint16(buf[12:14], uint16(len(cluster)))
	copy(buf[14:], cluster)
	return buf
}

// decodeHello parses and validates a hello payload.
func decodeHello(p []byte) (hello, error) {
	if len(p) < 14 {
		return hello{}, fmt.Errorf("transport: hello of %d bytes", len(p))
	}
	if [4]byte(p[:4]) != helloMagic {
		return hello{}, fmt.Errorf("transport: bad hello magic %q", p[:4])
	}
	cidLen := int(binary.BigEndian.Uint16(p[12:14]))
	if len(p) != 14+cidLen {
		return hello{}, fmt.Errorf("transport: hello cluster-id length %d vs %d payload bytes", cidLen, len(p)-14)
	}
	return hello{
		Rank:    int(binary.BigEndian.Uint32(p[4:8])),
		World:   int(binary.BigEndian.Uint32(p[8:12])),
		Cluster: string(p[14:]),
	}, nil
}

// encodeStep builds a sync/commit payload.
func encodeStep(step int) []byte {
	var buf [4]byte
	binary.BigEndian.PutUint32(buf[:], uint32(step))
	return buf[:]
}

// decodeStep parses a sync/commit payload.
func decodeStep(p []byte) (int, error) {
	if len(p) != 4 {
		return 0, fmt.Errorf("transport: step payload of %d bytes", len(p))
	}
	return int(binary.BigEndian.Uint32(p)), nil
}
