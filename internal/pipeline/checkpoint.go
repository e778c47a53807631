package pipeline

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"path/filepath"

	"seaice/internal/dataset"
	"seaice/internal/raster"
	"seaice/internal/record"
)

// shardCheckpoint is the on-disk record of one completed shard. Key ties
// the record to the exact source content and build configuration, so a
// resume against different data silently falls back to recomputing.
type shardCheckpoint struct {
	Key    string
	Scenes []int
	Tiles  [][]dataset.Tile
}

// shardRecord is the shard checkpoint format, a record (see package
// record) whose body is
//
//	shard := [Key][count]([scene][count](tile)…)…
//	tile  := [Original][Filtered][Manual][Auto][CloudFraction][Scene]
//
// with each raster as [W][H][pixels] (W = H = 0 for an absent one). A
// flipped bit anywhere in the cached tiles fails the CRC32C check at
// load and a torn write fails the length check. Loaders treat any
// failure as a cache miss and recompute the shard — a corrupt cache must
// never poison the products.
var shardRecord = record.Kind{Magic: "SEAICE-SHARD\x03", MaxBody: 1 << 32}

// ErrCorruptShard reports a shard checkpoint that fails verification —
// another format or version, truncation, checksum mismatch, or
// undecodable contents.
var ErrCorruptShard = errors.New("pipeline: corrupt shard checkpoint")

// checkpointKey fingerprints everything a shard's tiles depend on.
func (s *Stream) checkpointKey() string {
	h := sha256.Sum256([]byte(fmt.Sprintf(
		"%d scenes|%dx%d|tile %d|filter %+v|labeler %s|src %s",
		s.n, s.w, s.h, s.cfg.Build.TileSize,
		s.cfg.Build.Filter, s.cfg.Build.LabelerKey(), s.src.Fingerprint(),
	)))
	return fmt.Sprintf("%x", h[:])
}

// shardPath names shard k's checkpoint file.
func (s *Stream) shardPath(k int) string {
	return filepath.Join(s.cfg.CheckpointDir, fmt.Sprintf("shard-%04d.rec", k))
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
		if err != nil || cp.Key != key {
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

// saveShard persists a completed shard durably (record.WriteFile).
// Write failures are recorded as the stream's non-fatal checkpoint error
// (CheckpointErr) — a broken disk must not kill a compute run that can
// finish in memory.
func (s *Stream) saveShard(k int) {
	if s.cfg.CheckpointDir == "" {
		return
	}
	cp := shardCheckpoint{Key: s.checkpointKey(), Scenes: s.shards[k]}
	s.mu.Lock()
	for _, idx := range s.shards[k] {
		cp.Tiles = append(cp.Tiles, s.tiles[idx])
	}
	s.mu.Unlock()

	// An injected torn write truncates the file mid-body, as a crash
	// between write and fsync would; the next restore detects it and
	// recomputes the shard.
	if err := shardRecord.WriteFile(s.shardPath(k), cp.encode(), s.cfg.Chaos.TornWrite(k), nil); err != nil {
		s.mu.Lock()
		s.cpErr = fmt.Errorf("pipeline: checkpoint shard %d: %w", k, err)
		s.mu.Unlock()
	}
}

// CheckpointErr reports the last non-fatal checkpoint write failure, if
// any; the pipeline's data products are unaffected by it.
func (s *Stream) CheckpointErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cpErr
}

// encode renders the shard body.
func (cp *shardCheckpoint) encode() []byte {
	var e record.Encoder
	e.String(cp.Key)
	e.Int(len(cp.Scenes))
	for i, idx := range cp.Scenes {
		e.Int(idx)
		e.Int(len(cp.Tiles[i]))
		for _, t := range cp.Tiles[i] {
			for _, r := range [2]*raster.RGB{t.Original, t.Filtered} {
				if r == nil {
					r = &raster.RGB{}
				}
				putRaster(&e, r.W, r.H, r.Pix)
			}
			for _, l := range [2]*raster.Labels{t.Manual, t.Auto} {
				if l == nil {
					l = &raster.Labels{}
				}
				putRaster(&e, l.W, l.H, l.Pix)
			}
			e.Float64(t.CloudFraction)
			e.Int(t.Scene)
		}
	}
	return e.Body()
}

// putRaster writes one raster as [W][H][pixels]; W = H = 0 and no pixels
// stand for an absent one.
func putRaster[P ~uint8](e *record.Encoder, w, h int, pix []P) {
	e.Int(w)
	e.Int(h)
	e.Int(len(pix))
	for _, p := range pix {
		e.Byte(byte(p))
	}
}

// getRaster reads one raster of the given samples per pixel, whose
// dimensions must match its pixel count; pix is nil for an absent one.
func getRaster[P ~uint8](d *record.Decoder, samples int) (w, h int, pix []P) {
	w, h = d.Int(), d.Int()
	raw := d.Bytes()
	if d.Err() != nil || (w == 0 && h == 0 && len(raw) == 0) {
		return 0, 0, nil
	}
	if w < 1 || h < 1 || w > len(raw) || h > len(raw)/w || w*h*samples != len(raw) {
		d.Fail(fmt.Errorf("%dx%d raster with %d samples", w, h, len(raw)))
		return 0, 0, nil
	}
	pix = make([]P, len(raw))
	for i, b := range raw {
		pix[i] = P(b)
	}
	return w, h, pix
}

// decodeShard reads a shard body.
func decodeShard(body []byte) (*shardCheckpoint, error) {
	d := record.NewDecoder(body)
	cp := &shardCheckpoint{Key: d.String()}
	if n := d.Count(16); n > 0 {
		cp.Scenes = make([]int, n)
		cp.Tiles = make([][]dataset.Tile, n)
		for i := range cp.Scenes {
			cp.Scenes[i] = d.Int()
			if m := d.Count(4*24 + 16); m > 0 {
				cp.Tiles[i] = make([]dataset.Tile, m)
			}
			for j := range cp.Tiles[i] {
				t := &cp.Tiles[i][j]
				for _, r := range [2]**raster.RGB{&t.Original, &t.Filtered} {
					if w, h, pix := getRaster[uint8](d, 3); pix != nil {
						*r = &raster.RGB{W: w, H: h, Pix: pix}
					}
				}
				for _, l := range [2]**raster.Labels{&t.Manual, &t.Auto} {
					if w, h, pix := getRaster[raster.Class](d, 1); pix != nil {
						*l = &raster.Labels{W: w, H: h, Pix: pix}
					}
				}
				t.CloudFraction, t.Scene = d.Float64(), d.Int()
			}
		}
	}
	return cp, d.Done()
}

// readShard reads one checkpoint file, verifying the record's magic,
// length and CRC32C trailer before decoding a single field.
func readShard(path string) (*shardCheckpoint, error) {
	body, err := shardRecord.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCorruptShard, err)
	}
	cp, err := decodeShard(body)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCorruptShard, err)
	}
	return cp, nil
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
	for _, ts := range cp.Tiles {
		tiles += len(ts)
	}
	return len(cp.Scenes), tiles, nil
}
