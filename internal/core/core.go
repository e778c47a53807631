// Package core is the workflow facade tying the whole reproduction
// together: scene campaign generation → thin-cloud/shadow filtering →
// auto-labeling → dataset assembly → U-Net-Man / U-Net-Auto training →
// evaluation. The experiment harness (cmd/seaice-bench), the examples,
// and the top-level benchmarks all drive this package rather than wiring
// the substrates by hand. Dataset assembly flows through the streaming
// sharded pipeline (internal/pipeline), whose output is byte-identical
// to the batch path, so every experiment result is deterministic in its
// AccuracyConfig regardless of stage parallelism.
package core

import (
	"fmt"
	"io"

	"seaice/internal/dataset"
	"seaice/internal/metrics"
	"seaice/internal/pipeline"
	"seaice/internal/scene"
	"seaice/internal/train"
	"seaice/internal/unet"
)

// AccuracyConfig scales the Table IV/V/Fig 13 experiment. The defaults
// reproduce the paper's comparisons at reduced scale — the full campaign,
// but a subsampled training set and the FastConfig U-Net — so a CPU run
// finishes in minutes (see DefaultAccuracyConfig).
type AccuracyConfig struct {
	// Campaign is the synthetic acquisition (paper: 66 scenes).
	Campaign scene.CollectionConfig
	// Build controls filtering/labeling/tiling.
	Build dataset.BuildConfig
	// TrainFrac is the train/test split (paper: 0.8).
	TrainFrac float64
	// Model is the U-Net variant to train.
	Model unet.Config
	// Epochs, BatchSize, LR configure both model trainings.
	Epochs    int
	BatchSize int
	LR        float64
	// TrainTiles/TestTiles subsample the split to fit the host budget
	// (0 = use everything).
	TrainTiles, TestTiles int
	Seed                  uint64
	// Progress, if non-nil, receives coarse stage notifications.
	Progress func(stage string)
}

// DefaultAccuracyConfig returns the experiment-scale configuration used
// by cmd/seaice-bench: the full 66-scene campaign (4224 tiles) with a
// FastConfig U-Net trained on a stratified subsample sized for a
// single-core host (~10 min; raise TrainTiles/TestTiles/Epochs on bigger
// machines).
func DefaultAccuracyConfig(seed uint64) AccuracyConfig {
	return AccuracyConfig{
		Campaign:   scene.DefaultCollection(seed),
		Build:      dataset.DefaultBuild(),
		TrainFrac:  0.8,
		Model:      unet.FastConfig(seed),
		Epochs:     8,
		BatchSize:  8,
		LR:         0.01,
		TrainTiles: 160,
		TestTiles:  224,
		Seed:       seed,
	}
}

// QuickAccuracyConfig is a reduced configuration for tests and the
// quickstart example (a few scenes, few epochs).
func QuickAccuracyConfig(seed uint64) AccuracyConfig {
	cfg := DefaultAccuracyConfig(seed)
	cfg.Campaign.Scenes = 8
	cfg.Campaign.W, cfg.Campaign.H = 256, 256
	cfg.Build.TileSize = 32
	cfg.Epochs = 10
	cfg.TrainTiles = 96
	cfg.TestTiles = 160
	return cfg
}

// Cell is one accuracy measurement: a model evaluated on one dataset
// view, always against manual (ground-truth) labels.
type Cell struct {
	Accuracy  float64
	Precision float64
	Recall    float64
	F1        float64
	Confusion *metrics.Confusion
}

// cellFrom summarizes a confusion matrix.
func cellFrom(c *metrics.Confusion) Cell {
	return Cell{
		Accuracy:  c.Accuracy(),
		Precision: c.MacroPrecision(),
		Recall:    c.MacroRecall(),
		F1:        c.MacroF1(),
		Confusion: c,
	}
}

// AccuracyResult carries everything Tables IV and V and Fig 13 report.
type AccuracyResult struct {
	// Man/Auto × Orig/Filt over the full test set (Table IV).
	ManOrig, AutoOrig, ManFilt, AutoFilt Cell
	// The same four cells over the >10% and ≤10% cloud-cover buckets
	// (Table V; Fig 13's six panels draw from these confusions).
	CloudyManOrig, CloudyAutoOrig, CloudyManFilt, CloudyAutoFilt Cell
	ClearManOrig, ClearAutoOrig, ClearManFilt, ClearAutoFilt     Cell
	// Auto-label agreement with manual labels (§IV-B2 SSIM analog).
	SSIMOriginal, SSIMFiltered float64
	// Dataset bookkeeping.
	Scenes, Tiles, TrainTiles, TestTiles, CloudyTest, ClearTest int
	// The trained models, for Fig 14 renderings and reuse.
	UNetMan, UNetAuto *unet.Model[float64]
	// The evaluated test tiles, for qualitative panels.
	Test []dataset.Tile
}

// progress reports a stage if a callback is configured.
func (cfg AccuracyConfig) progress(stage string) {
	if cfg.Progress != nil {
		cfg.Progress(stage)
	}
}

// RunAccuracy executes the full accuracy experiment: it trains U-Net-Man
// on (original imagery, manual labels) and U-Net-Auto on (original
// imagery, auto labels), then validates both on manual labels over
// original and filtered test imagery, whole and bucketed by cloud cover.
func RunAccuracy(cfg AccuracyConfig) (*AccuracyResult, error) {
	// The streaming pipeline generates, filters, labels, and tiles the
	// campaign with overlapped stages (scene generation is no longer a
	// serial prologue); its output is byte-identical to the legacy
	// generate-all → dataset.Build sequence it replaced.
	cfg.progress("streaming scene campaign through filter/label/tile")
	builder := pipeline.StreamBuilder{Config: pipeline.Config{Build: cfg.Build}}
	set, err := builder.BuildSet(pipeline.CollectionSource{Cfg: cfg.Campaign})
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}

	trainTiles, testTiles, err := set.Split(cfg.TrainFrac, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	res := &AccuracyResult{
		Scenes: cfg.Campaign.Scenes,
		Tiles:  len(set.Tiles),
	}
	if cfg.TrainTiles > 0 {
		trainTiles = dataset.Subsample(trainTiles, cfg.TrainTiles, cfg.Seed+1)
	}
	if cfg.TestTiles > 0 {
		testTiles = dataset.Subsample(testTiles, cfg.TestTiles, cfg.Seed+2)
	}
	res.TrainTiles, res.TestTiles = len(trainTiles), len(testTiles)
	res.Test = testTiles

	// §IV-B2: auto-label agreement with manual labels before/after
	// filtering, measured over the test tiles.
	res.SSIMOriginal, res.SSIMFiltered, err = labelSSIM(testTiles, cfg.Build)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}

	trainCfg := train.Config{Epochs: cfg.Epochs, BatchSize: cfg.BatchSize, LR: cfg.LR, Seed: cfg.Seed}

	cfg.progress("training U-Net-Man")
	man, err := unet.New[float64](cfg.Model)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if _, err := train.Fit(man, dataset.Samples(trainTiles, dataset.OriginalImages, dataset.ManualLabels), trainCfg); err != nil {
		return nil, fmt.Errorf("core: U-Net-Man: %w", err)
	}
	res.UNetMan = man

	cfg.progress("training U-Net-Auto")
	autoCfg := cfg.Model
	autoCfg.Seed = cfg.Model.Seed + 1
	auto, err := unet.New[float64](autoCfg)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if _, err := train.Fit(auto, dataset.Samples(trainTiles, dataset.OriginalImages, dataset.AutoLabels), trainCfg); err != nil {
		return nil, fmt.Errorf("core: U-Net-Auto: %w", err)
	}
	res.UNetAuto = auto

	cfg.progress("evaluating")
	cloudy, clear := dataset.CloudBuckets(testTiles, 0.10)
	res.CloudyTest, res.ClearTest = len(cloudy), len(clear)

	eval := func(m *unet.Model[float64], tiles []dataset.Tile, img dataset.ImageKind) (Cell, error) {
		if len(tiles) == 0 {
			return Cell{}, nil
		}
		// Validation always scores against manual labels.
		conf, err := train.Evaluate(m, dataset.Samples(tiles, img, dataset.ManualLabels))
		if err != nil {
			return Cell{}, err
		}
		return cellFrom(conf), nil
	}

	type slot struct {
		dst   *Cell
		model *unet.Model[float64]
		tiles []dataset.Tile
		img   dataset.ImageKind
	}
	slots := []slot{
		{&res.ManOrig, man, testTiles, dataset.OriginalImages},
		{&res.AutoOrig, auto, testTiles, dataset.OriginalImages},
		{&res.ManFilt, man, testTiles, dataset.FilteredImages},
		{&res.AutoFilt, auto, testTiles, dataset.FilteredImages},
		{&res.CloudyManOrig, man, cloudy, dataset.OriginalImages},
		{&res.CloudyAutoOrig, auto, cloudy, dataset.OriginalImages},
		{&res.CloudyManFilt, man, cloudy, dataset.FilteredImages},
		{&res.CloudyAutoFilt, auto, cloudy, dataset.FilteredImages},
		{&res.ClearManOrig, man, clear, dataset.OriginalImages},
		{&res.ClearAutoOrig, auto, clear, dataset.OriginalImages},
		{&res.ClearManFilt, man, clear, dataset.FilteredImages},
		{&res.ClearAutoFilt, auto, clear, dataset.FilteredImages},
	}
	for _, s := range slots {
		c, err := eval(s.model, s.tiles, s.img)
		if err != nil {
			return nil, fmt.Errorf("core: evaluate: %w", err)
		}
		*s.dst = c
	}
	return res, nil
}

// labelSSIM computes the §IV-B2 agreement of auto labels with manual
// labels over rendered label maps, for original and filtered imagery.
func labelSSIM(tiles []dataset.Tile, build dataset.BuildConfig) (orig, filt float64, err error) {
	if len(tiles) == 0 {
		return 0, 0, fmt.Errorf("no tiles for SSIM")
	}
	var so, sf float64
	n := 0
	for _, t := range tiles {
		// Auto labels from the unfiltered tile must be recomputed (the
		// dataset's Auto view is derived from filtered imagery).
		labOrig, err := labelTile(t.Original, build)
		if err != nil {
			return 0, 0, err
		}
		manual := t.Manual.Render()
		a, err := metrics.SSIMRGB(manual, labOrig.Render())
		if err != nil {
			return 0, 0, err
		}
		b, err := metrics.SSIMRGB(manual, t.Auto.Render())
		if err != nil {
			return 0, 0, err
		}
		so += a
		sf += b
		n++
	}
	return so / float64(n), sf / float64(n), nil
}

// WriteSummary prints the headline numbers of an accuracy run.
func (r *AccuracyResult) WriteSummary(w io.Writer) {
	fmt.Fprintf(w, "scenes=%d tiles=%d train=%d test=%d (cloudy %d / clear %d)\n",
		r.Scenes, r.Tiles, r.TrainTiles, r.TestTiles, r.CloudyTest, r.ClearTest)
	fmt.Fprintf(w, "auto-label SSIM vs manual: original %.4f filtered %.4f\n", r.SSIMOriginal, r.SSIMFiltered)
	fmt.Fprintf(w, "U-Net-Man : original %.2f%%  filtered %.2f%%\n", 100*r.ManOrig.Accuracy, 100*r.ManFilt.Accuracy)
	fmt.Fprintf(w, "U-Net-Auto: original %.2f%%  filtered %.2f%%\n", 100*r.AutoOrig.Accuracy, 100*r.AutoFilt.Accuracy)
}
