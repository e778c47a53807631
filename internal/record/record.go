// Package record is the one on-disk format. Model checkpoints (unet),
// training snapshots (ddp) and shard caches (pipeline) are each one
// record, and this package is the only code that knows the framing:
//
//	record := [magic][bodyLen:8 BE][body][crc32c(body):4 BE]
//
// The magic's last byte is the format version. The length is checked
// against the format's bound and the body copied in increments, so
// memory tracks the bytes present, not what a corrupt header claims. The
// CRC32C trailer is verified before a body byte is decoded, and the
// stream must end at the trailer. Bodies are written field by field with
// Encoder and read back with Decoder — no reflection and no map order —
// so the same state always encodes to the same bytes.
package record

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// Read's typed failures; each format maps them onto its own.
var (
	ErrMagic   = errors.New("record: missing or unknown magic")
	ErrVersion = errors.New("record: unsupported version")
	// ErrCorrupt is a valid header with a bad length, a truncated body,
	// a CRC mismatch or bytes after the trailer.
	ErrCorrupt = errors.New("record: corrupt record")
)

// Kind is one record format: its magic (last byte = version) and the
// largest body Read accepts.
type Kind struct {
	Magic   string
	MaxBody int64
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum continues the CRC32C crc (0 to start) over p — the one table,
// shared with transport's wire frames.
func Checksum(crc uint32, p []byte) uint32 { return crc32.Update(crc, castagnoli, p) }

// Write frames body as one record of kind k.
func (k Kind) Write(w io.Writer, body []byte) error {
	_, err := w.Write(binary.BigEndian.AppendUint64([]byte(k.Magic), uint64(len(body))))
	if err == nil {
		_, err = w.Write(body)
	}
	if err == nil {
		_, err = w.Write(binary.BigEndian.AppendUint32(nil, Checksum(0, body)))
	}
	return err
}

// Read reads one record of kind k — the whole of r — and returns its
// verified body. Failures wrap ErrMagic, ErrVersion or ErrCorrupt, or
// are the reader's own.
func (k Kind) Read(r io.Reader) ([]byte, error) {
	v := len(k.Magic) - 1
	head := make([]byte, v+1+8)
	n, err := io.ReadFull(r, head)
	switch {
	case err != nil && err != io.EOF && err != io.ErrUnexpectedEOF:
		return nil, err
	case n <= v || string(head[:v]) != k.Magic[:v]:
		return nil, ErrMagic
	case head[v] != k.Magic[v]:
		return nil, fmt.Errorf("%w %d (this build reads %d)", ErrVersion, head[v], k.Magic[v])
	case err != nil:
		return nil, fmt.Errorf("%w: truncated length", ErrCorrupt)
	}
	size := binary.BigEndian.Uint64(head[v+1:])
	if size > uint64(k.MaxBody) {
		return nil, fmt.Errorf("%w: body length %d exceeds %d", ErrCorrupt, size, k.MaxBody)
	}
	var buf bytes.Buffer
	if _, err := io.CopyN(&buf, r, int64(size)+4); err == io.EOF {
		return nil, fmt.Errorf("%w: truncated body (torn write?)", ErrCorrupt)
	} else if err != nil {
		return nil, err
	}
	body := buf.Bytes()[:size]
	if got, want := Checksum(0, body), binary.BigEndian.Uint32(buf.Bytes()[size:]); got != want {
		return nil, fmt.Errorf("%w: CRC mismatch (got %08x, want %08x)", ErrCorrupt, got, want)
	}
	if n, _ := r.Read(make([]byte, 1)); n > 0 {
		return nil, fmt.Errorf("%w: bytes after the trailer", ErrCorrupt)
	}
	return body, nil
}

// ReadFile reads the record of kind k that is the whole of path.
func (k Kind) ReadFile(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return k.Read(f)
}

// WriteFile durably replaces path with one record of kind k: it sweeps
// temp files an interrupted write of path left (writers are serial per
// path), writes and fsyncs a fresh temp file, calls beforeRename (if not
// nil; ddp rotates older generations there), renames the temp file over
// path and fsyncs the directory — neither a crash mid-write nor a power
// cut after the rename leaves path without a whole record. torn is the
// torn-write fault hook: it cuts the temp file in half before the fsync,
// as a crash between write and fsync would.
func (k Kind) WriteFile(path string, body []byte, torn bool, beforeRename func()) error {
	dir, pattern := filepath.Dir(path), "."+filepath.Base(path)+"-*.tmp"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	stale, _ := filepath.Glob(filepath.Join(dir, pattern))
	for _, p := range stale {
		os.Remove(p)
	}
	tmp, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	err = k.Write(tmp, body)
	if err == nil && torn {
		err = tmp.Truncate(int64(len(k.Magic)+8+len(body)+4) / 2)
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if beforeRename != nil {
		beforeRename()
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
