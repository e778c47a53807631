package pipeline

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"seaice/internal/dataset"
)

// shardCheckpoint is the on-disk record of one completed shard. Key ties
// the record to the exact source content and build configuration, so a
// resume against different data silently falls back to recomputing.
type shardCheckpoint struct {
	Version int
	Key     string
	Scenes  []int
	Tiles   [][]dataset.Tile
}

const checkpointVersion = 2

// shardMagic heads on-disk shard checkpoint files; the trailing byte is
// the format version. Version 2 is the checksummed layout:
//
//	v2 := [magic:13][bodyLen:8 BE][gob body][crc32c(body):4 BE]
//
// The CRC32C (Castagnoli) trailer covers the gob body, so a flipped bit
// anywhere in the cached tiles fails verification at load, and the
// explicit length makes a torn (truncated) write detectable before gob
// ever runs. Loaders treat any verification failure as a cache miss and
// recompute the shard — a corrupt cache must never poison the products.
const shardMagic = "SEAICE-SHARD\x02"

// shardTable is the CRC32C polynomial table for checkpoint checksums.
var shardTable = crc32.MakeTable(crc32.Castagnoli)

// ErrCorruptShard reports a shard checkpoint whose header is valid but
// whose body fails integrity verification — truncation, checksum
// mismatch, or undecodable contents.
var ErrCorruptShard = errors.New("pipeline: corrupt shard checkpoint")

// checkpointKey fingerprints everything a shard's tiles depend on.
func (s *Stream) checkpointKey() string {
	h := sha256.Sum256([]byte(fmt.Sprintf(
		"v%d|%d scenes|%dx%d|tile %d|filter %+v|labeler %s|src %s",
		checkpointVersion, s.n, s.w, s.h, s.cfg.Build.TileSize,
		s.cfg.Build.Filter, s.cfg.Build.LabelerKey(), s.src.Fingerprint(),
	)))
	return fmt.Sprintf("%x", h[:])
}

// shardPath names shard k's checkpoint file.
func (s *Stream) shardPath(k int) string {
	return filepath.Join(s.cfg.CheckpointDir, fmt.Sprintf("shard-%04d.gob", k))
}

// restoreShards loads every matching shard checkpoint and delivers its
// tiles straight to the assembler, bypassing the label and tiling
// stages. It returns the set of scene indices restored. Unreadable,
// corrupt, or mismatched files are treated as cache misses, never as
// errors.
func (s *Stream) restoreShards() map[int]bool {
	restored := make(map[int]bool)
	if s.cfg.CheckpointDir == "" {
		return restored
	}
	key := s.checkpointKey()
	for k := range s.shards {
		cp, err := readShard(s.shardPath(k))
		if err != nil || cp.Version != checkpointVersion || cp.Key != key {
			continue
		}
		if len(cp.Scenes) != len(s.shards[k]) || len(cp.Tiles) != len(s.shards[k]) {
			continue
		}
		ok := true
		for i, idx := range cp.Scenes {
			if idx != s.shards[k][i] || len(cp.Tiles[i]) != s.tilesPerScene {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		s.emit(Event{Kind: "resume", Shard: k, ScenesDone: s.completed()})
		for i, idx := range cp.Scenes {
			restored[idx] = true
			s.deliver(idx, cp.Tiles[i], false)
		}
	}
	return restored
}

// completed reads the global completion count.
func (s *Stream) completed() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.doneCount
}

// saveShard persists a completed shard durably: checksummed body, temp
// file fsynced before the atomic rename, directory fsynced after, and
// orphaned temp files from earlier interrupted writes of this shard
// reaped first. Write failures are recorded as the stream's non-fatal
// checkpoint error (CheckpointErr) — a broken disk must not kill a
// compute run that can finish in memory.
func (s *Stream) saveShard(k int) {
	if s.cfg.CheckpointDir == "" {
		return
	}
	cp := shardCheckpoint{
		Version: checkpointVersion,
		Key:     s.checkpointKey(),
		Scenes:  s.shards[k],
	}
	s.mu.Lock()
	for _, idx := range s.shards[k] {
		cp.Tiles = append(cp.Tiles, s.tiles[idx])
	}
	s.mu.Unlock()

	err := func() error {
		if err := os.MkdirAll(s.cfg.CheckpointDir, 0o755); err != nil {
			return err
		}
		// Shards save concurrently, so the temp pattern and the stale-file
		// sweep are both per-shard (the writer is serial per shard).
		pattern := fmt.Sprintf("shard-%04d-*.tmp", k)
		if stale, gerr := filepath.Glob(filepath.Join(s.cfg.CheckpointDir, pattern)); gerr == nil {
			for _, p := range stale {
				os.Remove(p)
			}
		}
		tmp, err := os.CreateTemp(s.cfg.CheckpointDir, pattern)
		if err != nil {
			return err
		}
		defer os.Remove(tmp.Name())
		if err := writeShard(tmp, &cp); err != nil {
			tmp.Close()
			return err
		}
		if s.cfg.Chaos.TornWrite(k) {
			// Injected torn write: truncate mid-body, simulating a crash
			// between write and fsync. The CRC layout makes the next
			// restore detect it and recompute the shard.
			if st, serr := tmp.Stat(); serr == nil {
				tmp.Truncate(st.Size() / 2)
			}
		}
		if err := tmp.Sync(); err != nil {
			tmp.Close()
			return err
		}
		if err := tmp.Close(); err != nil {
			return err
		}
		if err := os.Rename(tmp.Name(), s.shardPath(k)); err != nil {
			return err
		}
		return syncDir(s.cfg.CheckpointDir)
	}()
	if err != nil {
		s.mu.Lock()
		s.cpErr = fmt.Errorf("pipeline: checkpoint shard %d: %w", k, err)
		s.mu.Unlock()
	}
}

// syncDir fsyncs a directory so renames within it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return err
	}
	return nil
}

// CheckpointErr reports the last non-fatal checkpoint write failure, if
// any; the pipeline's data products are unaffected by it.
func (s *Stream) CheckpointErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cpErr
}

// writeShard encodes one checkpoint in the checksummed v2 layout.
func writeShard(w io.Writer, cp *shardCheckpoint) error {
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(cp); err != nil {
		return err
	}
	if _, err := io.WriteString(w, shardMagic); err != nil {
		return err
	}
	var hdr [8]byte
	binary.BigEndian.PutUint64(hdr[:], uint64(body.Len()))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.Write(body.Bytes()); err != nil {
		return err
	}
	var crc [4]byte
	binary.BigEndian.PutUint32(crc[:], crc32.Checksum(body.Bytes(), shardTable))
	_, err := w.Write(crc[:])
	return err
}

// readShard decodes one checkpoint file, verifying the magic header, the
// explicit body length, and the CRC32C trailer before trusting a single
// decoded byte.
func readShard(path string) (*shardCheckpoint, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(raw) < len(shardMagic) || string(raw[:len(shardMagic)]) != shardMagic {
		return nil, fmt.Errorf("%w: missing or unknown header", ErrCorruptShard)
	}
	rest := raw[len(shardMagic):]
	if len(rest) < 8 {
		return nil, fmt.Errorf("%w: truncated length header", ErrCorruptShard)
	}
	n := binary.BigEndian.Uint64(rest[:8])
	if len(rest) < 8+4 || n == 0 || n != uint64(len(rest)-8-4) {
		return nil, fmt.Errorf("%w: body length %d does not match file size (torn write?)", ErrCorruptShard, n)
	}
	body := rest[8 : 8+n]
	want := binary.BigEndian.Uint32(rest[8+n:])
	if got := crc32.Checksum(body, shardTable); got != want {
		return nil, fmt.Errorf("%w: CRC mismatch (got %08x, want %08x)", ErrCorruptShard, got, want)
	}
	var cp shardCheckpoint
	if err := gob.NewDecoder(bytes.NewReader(body)).Decode(&cp); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorruptShard, err)
	}
	return &cp, nil
}

// VerifyShardFile scrubs one checkpoint file without loading it into a
// stream: it verifies the checksummed layout end to end and returns the
// scene count and total tile count it holds. Used by the CLI
// -verify-state scrub mode.
func VerifyShardFile(path string) (scenes, tiles int, err error) {
	cp, err := readShard(path)
	if err != nil {
		return 0, 0, err
	}
	if cp.Version != checkpointVersion {
		return 0, 0, fmt.Errorf("%w: version %d (want %d)", ErrCorruptShard, cp.Version, checkpointVersion)
	}
	if len(cp.Scenes) != len(cp.Tiles) {
		return 0, 0, fmt.Errorf("%w: %d scenes but %d tile sets", ErrCorruptShard, len(cp.Scenes), len(cp.Tiles))
	}
	for _, ts := range cp.Tiles {
		tiles += len(ts)
	}
	return len(cp.Scenes), tiles, nil
}
