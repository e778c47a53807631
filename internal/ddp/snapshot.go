package ddp

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"seaice/internal/nn"
	"seaice/internal/noise"
)

// Snapshot is the exact mid-epoch training state at a global-step
// boundary: model weights (stored float64 — exact for either compute
// precision), the full Adam state (moments and, for mixed precision, the
// float64 master weights), each rank's RNG-stream position (dropout
// noise), and the batch cursor. Restoring a snapshot and re-running the
// remaining steps reproduces the uninterrupted run bit for bit, because
// every step is a deterministic function of this state and the seeded
// batch schedule — the recovery invariant the chaos tests assert.
type Snapshot struct {
	// Precision is "float32" or "float64"; a snapshot restores only into
	// the instantiation that wrote it (moments and masters are exact
	// either way, but cross-precision resume would not be bit-identical
	// to either pure run).
	Precision string
	// Key fingerprints the model configuration and training topology;
	// Restore rejects a mismatch.
	Key string
	// Data fingerprints the sample set (count, dimensions, pixel and
	// label content): resuming against different training data cannot be
	// bit-identical, so Fit rejects a mismatch.
	Data string
	// Step is the batch cursor: the number of completed global steps.
	Step int
	// Weights maps parameter name to float64 values (rank-synchronized,
	// so one copy covers every replica).
	Weights map[string][]float64
	// Opt is the optimizer state (identical across ranks).
	Opt nn.AdamState
	// RNG is each rank's generator position (ranks have distinct dropout
	// streams).
	RNG []noise.RNGState
}

// snapMagic heads on-disk snapshot files; the trailing byte is the
// format version. Version 4 is the checksummed layout:
//
//	v4 := [magic:16][bodyLen:8 BE][gob body][crc32c(body):4 BE]
//
// The CRC32C (Castagnoli) trailer covers the gob body, so a flipped bit
// anywhere in the state fails verification at load, and the explicit
// length makes a torn (truncated) write detectable before gob ever runs.
const snapMagic = "SEAICE-DDP-SNAP\x04"

// ErrSnapshotMismatch reports a snapshot whose key or precision does not
// match the trainer it is being restored into.
var ErrSnapshotMismatch = errors.New("ddp: snapshot does not match trainer configuration")

// ErrBadSnapshot reports a stream that is not a snapshot at all (missing
// or unknown header).
var ErrBadSnapshot = errors.New("ddp: malformed snapshot")

// ErrCorruptSnapshot reports a snapshot whose header is valid but whose
// body fails integrity verification — truncation, checksum mismatch, or
// inconsistent decoded contents. Loaders fall back to an older rotation
// entry instead of resuming from silent garbage.
var ErrCorruptSnapshot = errors.New("ddp: corrupt snapshot")

// DefaultSnapshotKeep is the snapshot rotation depth when the caller
// does not choose one: the newest snapshot plus one verified-good
// fallback entry.
const DefaultSnapshotKeep = 2

// Write encodes the snapshot in the checksummed v4 layout.
func (s *Snapshot) Write(w io.Writer) error {
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(s); err != nil {
		return fmt.Errorf("ddp: save snapshot: %w", err)
	}
	if _, err := io.WriteString(w, snapMagic); err != nil {
		return fmt.Errorf("ddp: save snapshot: %w", err)
	}
	var hdr [8]byte
	binary.BigEndian.PutUint64(hdr[:], uint64(body.Len()))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("ddp: save snapshot: %w", err)
	}
	if _, err := w.Write(body.Bytes()); err != nil {
		return fmt.Errorf("ddp: save snapshot: %w", err)
	}
	var crc [4]byte
	binary.BigEndian.PutUint32(crc[:], crc32.Checksum(body.Bytes(), snapTable))
	if _, err := w.Write(crc[:]); err != nil {
		return fmt.Errorf("ddp: save snapshot: %w", err)
	}
	return nil
}

// snapTable is the CRC32C polynomial table for checkpoint checksums.
var snapTable = crc32.MakeTable(crc32.Castagnoli)

// RotationEntry names the i-th snapshot rotation file: the live path for
// i = 0, "path.1", "path.2", … for older generations.
func RotationEntry(path string, i int) string {
	if i == 0 {
		return path
	}
	return fmt.Sprintf("%s.%d", path, i)
}

// saveSnapshotFile durably writes the snapshot and rotates the previous
// generations, keeping the newest `keep` entries (path, path.1, …;
// keep <= 1 keeps only path). The write is atomic (temp file + rename)
// and fsynced — both the file before rename and the directory after —
// so neither a crash mid-write nor a power cut after rename can leave
// the rotation without a durable good entry. torn is the torn-write
// fault hook: it truncates the file mid-body after rotation, simulating
// a crash between write and fsync — the corruption LoadSnapshotFallback
// must catch and skip.
func saveSnapshotFile(path string, s *Snapshot, keep int, torn bool) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("ddp: save snapshot: %w", err)
	}
	// Reap orphaned temp files from earlier interrupted writes of this
	// same snapshot path (the writer is serial per path, so anything
	// matching the pattern is stale).
	pattern := filepath.Join(dir, "."+filepath.Base(path)+"-*.tmp")
	if stale, err := filepath.Glob(pattern); err == nil {
		for _, p := range stale {
			os.Remove(p)
		}
	}
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+"-*.tmp")
	if err != nil {
		return fmt.Errorf("ddp: save snapshot: %w", err)
	}
	defer os.Remove(tmp.Name())
	if err := s.Write(tmp); err != nil {
		tmp.Close()
		return err
	}
	if torn {
		if st, err := tmp.Stat(); err == nil {
			tmp.Truncate(st.Size() / 2)
		}
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("ddp: save snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("ddp: save snapshot: %w", err)
	}
	// Rotate the existing generations up one slot before the new file
	// takes the live name.
	if keep < 1 {
		keep = 1
	}
	os.Remove(RotationEntry(path, keep-1))
	for i := keep - 1; i >= 2; i-- {
		os.Rename(RotationEntry(path, i-1), RotationEntry(path, i))
	}
	if keep > 1 {
		os.Rename(path, RotationEntry(path, 1))
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("ddp: save snapshot: %w", err)
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so renames within it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("ddp: sync snapshot dir: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("ddp: sync snapshot dir: %w", err)
	}
	return nil
}

// ReadSnapshot decodes a snapshot stream, verifying the magic header,
// the explicit body length, and the CRC32C trailer before trusting a
// single decoded byte.
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	br := bufio.NewReader(r)
	head, err := br.Peek(len(snapMagic))
	if err != nil || string(head) != snapMagic {
		return nil, fmt.Errorf("%w: missing or truncated header", ErrBadSnapshot)
	}
	if _, err := br.Discard(len(snapMagic)); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	var hdr [8]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: truncated length header", ErrCorruptSnapshot)
	}
	n := binary.BigEndian.Uint64(hdr[:])
	const maxSnapshot = 1 << 32
	if n == 0 || n > maxSnapshot {
		return nil, fmt.Errorf("%w: implausible body length %d", ErrCorruptSnapshot, n)
	}
	// The length is still only a claim: copy incrementally, so memory
	// tracks the bytes actually present and a corrupt header cannot
	// balloon it.
	var buf bytes.Buffer
	if _, err := io.CopyN(&buf, br, int64(n)); err != nil {
		return nil, fmt.Errorf("%w: truncated body (torn write?)", ErrCorruptSnapshot)
	}
	body := buf.Bytes()
	var crc [4]byte
	if _, err := io.ReadFull(br, crc[:]); err != nil {
		return nil, fmt.Errorf("%w: truncated CRC trailer", ErrCorruptSnapshot)
	}
	want := binary.BigEndian.Uint32(crc[:])
	if got := crc32.Checksum(body, snapTable); got != want {
		return nil, fmt.Errorf("%w: CRC mismatch (got %08x, want %08x)", ErrCorruptSnapshot, got, want)
	}
	var s Snapshot
	if err := gob.NewDecoder(bytes.NewReader(body)).Decode(&s); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorruptSnapshot, err)
	}
	if s.Step < 0 || len(s.RNG) == 0 || s.Weights == nil {
		return nil, fmt.Errorf("%w: inconsistent contents", ErrCorruptSnapshot)
	}
	return &s, nil
}

// LoadSnapshotFile reads a snapshot file the trainer wrote to
// Config.SnapshotPath, strictly: a corrupt file is an error, with no
// rotation fallback.
func LoadSnapshotFile(path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("ddp: load snapshot: %w", err)
	}
	defer f.Close()
	return ReadSnapshot(f)
}

// LoadSnapshotFallback loads the newest verifiable snapshot from the
// rotation (path, path.1, … up to keep entries), returning the entry it
// verified. A corrupt or torn newest entry — the window a crash during
// write leaves behind — falls back to the previous generation instead
// of failing the resume; only when no entry verifies does it return the
// errors, newest first.
func LoadSnapshotFallback(path string, keep int) (*Snapshot, string, error) {
	if keep < 1 {
		keep = 1
	}
	var errs []error
	for i := 0; i < keep; i++ {
		entry := RotationEntry(path, i)
		s, err := LoadSnapshotFile(entry)
		if err == nil {
			return s, entry, nil
		}
		errs = append(errs, fmt.Errorf("%s: %w", entry, err))
		if os.IsNotExist(errors.Unwrap(err)) && i > 0 {
			break // older generations don't exist either
		}
	}
	return nil, "", errors.Join(errs...)
}
