// Package dataset assembles the experiment datasets: it runs the
// thin-cloud/shadow filter and the auto-labeler over a scene campaign,
// splits scenes into tiles (the paper cuts 66 scenes into 4224 tiles),
// pairs every tile with its manual (ground-truth) and auto labels, tracks
// per-tile cloud coverage for Table V's buckets, and produces the
// train/test split and train.Sample views the U-Net experiments consume.
//
// Parallelism/bit-identity guarantees: Build fans scenes out over a
// worker pool, but each scene's tiles are a pure function of (scene,
// config) and are concatenated in scene order, so the set is identical
// at any worker count. All split/subsample randomness is exposed as
// index math (SplitIndices, SubsampleIndices) shared with the streaming
// pipeline, which is how internal/pipeline stays byte-identical to this
// batch path.
package dataset

import (
	"fmt"

	"seaice/internal/autolabel"
	"seaice/internal/cloudfilter"
	"seaice/internal/labeler"
	"seaice/internal/noise"
	"seaice/internal/pool"
	"seaice/internal/raster"
	"seaice/internal/scene"
	"seaice/internal/train"
)

// Tile is one dataset entry with every view the experiments need.
type Tile struct {
	// Original is the observed tile, clouds and all.
	Original *raster.RGB
	// Filtered is the thin-cloud/shadow-filtered tile.
	Filtered *raster.RGB
	// Manual holds ground-truth labels (the paper's manually labeled
	// data).
	Manual *raster.Labels
	// Auto holds color-segmentation labels derived from the filtered
	// imagery (the paper's auto-labeling pipeline).
	Auto *raster.Labels
	// CloudFraction is the tile's true disturbed-pixel fraction.
	CloudFraction float64
	// Scene is the source scene index.
	Scene int
}

// Set is a full tile dataset.
type Set struct {
	Tiles    []Tile
	TileSize int
}

// BuildConfig controls dataset assembly.
type BuildConfig struct {
	TileSize int
	Filter   cloudfilter.Config
	Labels   autolabel.Thresholds
	// Labeler selects the auto-labeling engine; nil uses the paper's HSV
	// thresholder with the Labels thresholds above (which are then part
	// of the labeler fingerprint; Labels is ignored when Labeler is
	// set). Select on the CLIs with -labeler hsv|kmeans|gmm[:k].
	Labeler labeler.Labeler
	// Workers parallelizes per-scene processing (pool size); <=0 uses
	// GOMAXPROCS.
	Workers int
}

// ActiveLabeler resolves the engine LabelScene will run: the configured
// Labeler, or the HSV thresholder over cfg.Labels when nil.
func (c BuildConfig) ActiveLabeler() labeler.Labeler {
	if c.Labeler != nil {
		return c.Labeler
	}
	return labeler.HSV{T: c.Labels}
}

// LabelerKey fingerprints the labeling engine and its full configuration
// for checkpoint keys: shard checkpoints written by one engine must
// never be resumed by a run configured with another.
func (c BuildConfig) LabelerKey() string {
	return labeler.Fingerprint(c.ActiveLabeler())
}

// DefaultBuild returns the experiment-scale configuration: 64² tiles so a
// 66-scene campaign of 512² scenes yields the paper's 4224 tiles.
func DefaultBuild() BuildConfig {
	return BuildConfig{
		TileSize: 64,
		Filter:   cloudfilter.DefaultConfig(),
		Labels:   autolabel.PaperThresholds(),
	}
}

// Build processes every scene — filter, auto-label, tile — in parallel
// over the pool. It is the batch reference the streaming pipeline
// (internal/pipeline) is held to byte for byte: only tests call it, and
// the shipped binaries build datasets through the pipeline.
func Build(scenes []*scene.Scene, cfg BuildConfig) (*Set, error) {
	if cfg.TileSize <= 0 {
		return nil, fmt.Errorf("dataset: tile size %d", cfg.TileSize)
	}
	perScene := make([][]Tile, len(scenes))
	p := pool.New(cfg.Workers)
	err := p.Map(len(scenes), func(i int) error {
		tiles, err := BuildScene(scenes[i], i, cfg)
		if err != nil {
			return fmt.Errorf("dataset: scene %d: %w", i, err)
		}
		perScene[i] = tiles
		return nil
	})
	if err != nil {
		return nil, err
	}
	set := &Set{TileSize: cfg.TileSize}
	for _, tiles := range perScene {
		set.Tiles = append(set.Tiles, tiles...)
	}
	return set, nil
}

// LabeledScene is the product of the filter/label stage: the scene plus
// its scene-scale filtered imagery and auto labels, ready for tiling.
type LabeledScene struct {
	Scene    *scene.Scene
	Filtered *raster.RGB
	Auto     *raster.Labels
}

// LabelScene runs the thin-cloud/shadow filter and the auto-labeler over
// one scene at full scene scale (the filter's neighborhood statistics
// need more context than a single tile). It is the first stage half of
// BuildScene, exposed so the streaming pipeline can run filtering and
// tiling as separate overlapped stages.
func LabelScene(sc *scene.Scene, cfg BuildConfig) (*LabeledScene, error) {
	res := cloudfilter.Filter(sc.Image, cfg.Filter)
	auto, err := cfg.ActiveLabeler().Label(res.Image)
	if err != nil {
		return nil, err
	}
	return &LabeledScene{Scene: sc, Filtered: res.Image, Auto: auto}, nil
}

// TileScene cuts a labeled scene's products into tiles — the second
// stage half of BuildScene.
func TileScene(ls *LabeledScene, index int, cfg BuildConfig) ([]Tile, error) {
	sc := ls.Scene
	origTiles, _, err := raster.Split(sc.Image, cfg.TileSize, cfg.TileSize)
	if err != nil {
		return nil, err
	}
	filtTiles, _, err := raster.Split(ls.Filtered, cfg.TileSize, cfg.TileSize)
	if err != nil {
		return nil, err
	}
	manTiles, _, err := raster.SplitLabels(sc.Truth, cfg.TileSize, cfg.TileSize)
	if err != nil {
		return nil, err
	}
	autoTiles, _, err := raster.SplitLabels(ls.Auto, cfg.TileSize, cfg.TileSize)
	if err != nil {
		return nil, err
	}

	out := make([]Tile, len(origTiles))
	for i := range origTiles {
		// Per-tile cloud coverage from the scene's ground truth mask.
		col, row := origTiles[i].Col, origTiles[i].Row
		disturbed := 0
		for y := 0; y < cfg.TileSize; y++ {
			off := (row*cfg.TileSize+y)*sc.CloudMask.W + col*cfg.TileSize
			for x := 0; x < cfg.TileSize; x++ {
				if sc.CloudMask.Pix[off+x] != 0 {
					disturbed++
				}
			}
		}
		out[i] = Tile{
			Original:      origTiles[i].Image,
			Filtered:      filtTiles[i].Image,
			Manual:        manTiles[i],
			Auto:          autoTiles[i],
			CloudFraction: float64(disturbed) / float64(cfg.TileSize*cfg.TileSize),
			Scene:         index,
		}
	}
	return out, nil
}

// BuildScene filters, labels, and tiles one scene — LabelScene followed
// by TileScene. It is the unit of work of both Build and the streaming
// pipeline (internal/pipeline): each scene's output depends only on the
// scene and cfg, never on processing order or concurrency, which is what
// makes the two paths byte-identical.
func BuildScene(sc *scene.Scene, index int, cfg BuildConfig) ([]Tile, error) {
	ls, err := LabelScene(sc, cfg)
	if err != nil {
		return nil, err
	}
	return TileScene(ls, index, cfg)
}

// SplitIndices computes the deterministic train/test partition of n tiles
// as tile indices, without needing the tiles themselves. The index math is
// separated from Split so the streaming pipeline (internal/pipeline) can
// plan which scenes feed which training batches before a single tile has
// been labeled; Split is a thin wrapper, so the two paths agree by
// construction.
func SplitIndices(n int, trainFrac float64, seed uint64) (trainIdx, testIdx []int, err error) {
	if trainFrac <= 0 || trainFrac >= 1 {
		return nil, nil, fmt.Errorf("dataset: train fraction %.2f outside (0,1)", trainFrac)
	}
	rng := noise.NewRNG(seed, 0x5117)
	perm := rng.Perm(n)
	nTrain := int(float64(n) * trainFrac)
	return perm[:nTrain], perm[nTrain:], nil
}

// Split divides the tiles deterministically into train and test subsets
// (the paper uses 80/20).
func (s *Set) Split(trainFrac float64, seed uint64) (trainSet, testSet []Tile, err error) {
	trainIdx, testIdx, err := SplitIndices(len(s.Tiles), trainFrac, seed)
	if err != nil {
		return nil, nil, err
	}
	for _, idx := range trainIdx {
		trainSet = append(trainSet, s.Tiles[idx])
	}
	for _, idx := range testIdx {
		testSet = append(testSet, s.Tiles[idx])
	}
	return trainSet, testSet, nil
}

// CloudBuckets partitions tiles by cloud coverage around the paper's
// "about 10%" boundary (Table V).
func CloudBuckets(tiles []Tile, boundary float64) (cloudy, clear []Tile) {
	for _, t := range tiles {
		if t.CloudFraction > boundary {
			cloudy = append(cloudy, t)
		} else {
			clear = append(clear, t)
		}
	}
	return cloudy, clear
}

// ImageKind selects which imagery view feeds the model.
type ImageKind int

// LabelKind selects which labels supervise training.
type LabelKind int

// The paper's four dataset views: original vs filtered imagery, manual
// vs auto labels.
const (
	OriginalImages ImageKind = iota
	FilteredImages
)
const (
	ManualLabels LabelKind = iota
	AutoLabels
)

// Samples converts tiles into training samples with the chosen image and
// label views.
func Samples(tiles []Tile, img ImageKind, lab LabelKind) []train.Sample {
	out := make([]train.Sample, len(tiles))
	for i, t := range tiles {
		s := train.Sample{}
		switch img {
		case FilteredImages:
			s.Image = t.Filtered
		default:
			s.Image = t.Original
		}
		switch lab {
		case AutoLabels:
			s.Labels = t.Auto
		default:
			s.Labels = t.Manual
		}
		out[i] = s
	}
	return out
}

// SubsampleIndices computes the positions Subsample would keep out of n
// tiles: nil when keep <= 0, the identity order when keep >= n, otherwise
// the first keep entries of a deterministic permutation. Exposed as index
// math for the same reason as SplitIndices.
func SubsampleIndices(n, keep int, seed uint64) []int {
	if keep >= n {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		return idx
	}
	if keep <= 0 {
		return nil
	}
	rng := noise.NewRNG(seed, 0x5ab5)
	return rng.Perm(n)[:keep]
}

// Subsample returns every k-th tile of a deterministic shuffle — the
// stratification used to fit single-core training budgets while keeping
// scene and cloud-cover diversity.
func Subsample(tiles []Tile, n int, seed uint64) []Tile {
	if n >= len(tiles) {
		return tiles
	}
	if n <= 0 {
		return nil
	}
	idx := SubsampleIndices(len(tiles), n, seed)
	out := make([]Tile, len(idx))
	for i, j := range idx {
		out[i] = tiles[j]
	}
	return out
}
