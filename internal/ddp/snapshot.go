package ddp

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sort"

	"seaice/internal/nn"
	"seaice/internal/noise"
	"seaice/internal/record"
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

// snapRecord is the on-disk snapshot format, a record (see package
// record) whose body holds the fields in declaration order — Weights as
// (name, values) pairs in sorted name order, the Adam buffers and RNG
// states in slice order — so a snapshot encodes to the same bytes every
// time. A flipped bit anywhere fails the CRC32C check at load and a torn
// write fails the length check, before any field is decoded.
var snapRecord = record.Kind{Magic: "SEAICE-DDP-SNAP\x05", MaxBody: 1 << 32}

// ErrSnapshotMismatch reports a snapshot whose key or precision does not
// match the trainer it is being restored into.
var ErrSnapshotMismatch = errors.New("ddp: snapshot does not match trainer configuration")

// ErrBadSnapshot reports a stream that is not a snapshot of this format
// version (missing or unknown header).
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

// encode renders the snapshot body.
func (s *Snapshot) encode() []byte {
	var e record.Encoder
	e.String(s.Precision)
	e.String(s.Key)
	e.String(s.Data)
	e.Int(s.Step)
	names := make([]string, 0, len(s.Weights))
	for name := range s.Weights {
		names = append(names, name)
	}
	sort.Strings(names)
	e.Int(len(names))
	for _, name := range names {
		e.String(name)
		e.Float64s(s.Weights[name])
	}
	e.Int(s.Opt.T)
	for _, bufs := range [][][]float64{s.Opt.M, s.Opt.V, s.Opt.Master} {
		e.Int(len(bufs))
		for _, b := range bufs {
			e.Float64s(b)
		}
	}
	e.Int(len(s.RNG))
	for _, st := range s.RNG {
		e.Uint64(st.State)
		e.Uint64(st.Inc)
	}
	return e.Body()
}

// decodeSnapshot reads a snapshot body, refusing one whose contents are
// inconsistent (a negative step, no weights or no RNG state).
func decodeSnapshot(body []byte) (*Snapshot, error) {
	d := record.NewDecoder(body)
	s := &Snapshot{Precision: d.String(), Key: d.String(), Data: d.String(), Step: d.Int()}
	n := d.Count(16)
	s.Weights = make(map[string][]float64, n)
	prev := ""
	for i := 0; i < n; i++ {
		name := d.String()
		if d.Err() == nil && i > 0 && name <= prev {
			d.Fail(fmt.Errorf("weight %q out of order after %q", name, prev))
		}
		s.Weights[name], prev = d.Float64s(), name
	}
	s.Opt.T = d.Int()
	for _, bufs := range []*[][]float64{&s.Opt.M, &s.Opt.V, &s.Opt.Master} {
		if n := d.Count(8); n > 0 {
			*bufs = make([][]float64, n)
			for i := range *bufs {
				(*bufs)[i] = d.Float64s()
			}
		}
	}
	if n := d.Count(16); n > 0 {
		s.RNG = make([]noise.RNGState, n)
		for i := range s.RNG {
			s.RNG[i] = noise.RNGState{State: d.Uint64(), Inc: d.Uint64()}
		}
	}
	if err := d.Done(); err != nil {
		return nil, err
	}
	if s.Step < 0 || len(s.RNG) == 0 || len(s.Weights) == 0 {
		return nil, errors.New("inconsistent contents")
	}
	return s, nil
}

// RotationEntry names the i-th snapshot rotation file: the live path for
// i = 0, "path.1", "path.2", … for older generations.
func RotationEntry(path string, i int) string {
	if i == 0 {
		return path
	}
	return fmt.Sprintf("%s.%d", path, i)
}

// saveSnapshotFile durably writes the snapshot (record.WriteFile) and
// rotates the previous generations, keeping the newest `keep` entries
// (path, path.1, …; keep <= 1 keeps only path). The rotation runs after
// the new file is durable and before it takes the live name, so neither
// a crash mid-write nor a power cut after the rename can leave the
// rotation without a durable good entry. torn is the torn-write fault
// hook: the new file is truncated mid-body, the corruption
// LoadSnapshotFallback must catch and skip.
func saveSnapshotFile(path string, s *Snapshot, keep int, torn bool) error {
	if keep < 1 {
		keep = 1
	}
	rotate := func() {
		os.Remove(RotationEntry(path, keep-1))
		for i := keep - 1; i >= 2; i-- {
			os.Rename(RotationEntry(path, i-1), RotationEntry(path, i))
		}
		if keep > 1 {
			os.Rename(path, RotationEntry(path, 1))
		}
	}
	if err := snapRecord.WriteFile(path, s.encode(), torn, rotate); err != nil {
		return fmt.Errorf("ddp: save snapshot: %w", err)
	}
	return nil
}

// ReadSnapshot decodes a snapshot stream, verifying the record's magic,
// length and CRC32C trailer before decoding a single field. A stream that
// is not a snapshot of this version is ErrBadSnapshot; one whose header
// is valid but whose body fails verification is ErrCorruptSnapshot.
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	body, err := snapRecord.Read(r)
	if errors.Is(err, record.ErrMagic) || errors.Is(err, record.ErrVersion) {
		return nil, fmt.Errorf("%w: %w", ErrBadSnapshot, err)
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCorruptSnapshot, err)
	}
	s, err := decodeSnapshot(body)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCorruptSnapshot, err)
	}
	return s, nil
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
