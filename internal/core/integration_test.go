package core

import (
	"testing"

	"seaice/internal/dataset"
	"seaice/internal/metrics"
	"seaice/internal/pipeline"
	"seaice/internal/raster"
	"seaice/internal/scene"
	"seaice/internal/unet"
)

// TestCampaignToDatasetIntegration exercises the §III-A data-collection
// path end to end through the shipped source: stream a campaign's scenes
// through the pipeline and build the labeled tile dataset from them.
func TestCampaignToDatasetIntegration(t *testing.T) {
	campaign := scene.DefaultCollection(77)
	campaign.Scenes = 4
	campaign.W, campaign.H = 128, 128

	build := dataset.DefaultBuild()
	build.TileSize = 32
	builder := pipeline.StreamBuilder{Config: pipeline.Config{Build: build}}
	set, err := builder.BuildSet(pipeline.CollectionSource{Cfg: campaign})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	if len(set.Tiles) != 4*16 {
		t.Fatalf("built %d tiles, want 64", len(set.Tiles))
	}

	// The auto labels must be usable: they agree with manual labels on
	// the filtered imagery far better than chance.
	agree, total := 0, 0
	for _, tile := range set.Tiles {
		for i := range tile.Manual.Pix {
			if tile.Manual.Pix[i] == tile.Auto.Pix[i] {
				agree++
			}
			total++
		}
	}
	frac := float64(agree) / float64(total)
	t.Logf("auto labels agree %.3f with manual", frac)
	if frac < 0.85 {
		t.Fatalf("campaign auto labels agree only %.3f with manual", frac)
	}
}

// TestInferenceRoundTrip: scene-level inference (Fig 9) must produce a
// stitched prediction of scene size that beats chance against truth even
// with an untrained model replaced by... a trained tiny model on the
// same distribution.
func TestInferenceRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a tiny model; skipped with -short")
	}
	cfg := QuickAccuracyConfig(555)
	cfg.Campaign.Scenes = 4
	cfg.Epochs = 6
	cfg.TrainTiles = 48
	cfg.TestTiles = 32
	res, err := RunAccuracy(cfg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}

	// a fresh scene from the same campaign family
	sc := mustScene(t, 556)
	pred, err := Inference(res.UNetAuto, sc.Image, cfg.Build.TileSize, cfg.Build)
	if err != nil {
		t.Fatalf("inference: %v", err)
	}
	if pred.W != sc.Image.W || pred.H != sc.Image.H {
		t.Fatalf("prediction %dx%d, want scene size", pred.W, pred.H)
	}
	acc, err := metrics.PixelAccuracy(sc.Truth, pred)
	if err != nil {
		t.Fatalf("accuracy: %v", err)
	}
	t.Logf("scene-level inference accuracy: %.4f", acc)
	// Chance on these scenes is ~40% (majority class); a tiny model
	// on a 48-tile budget must still clear 0.70 on an unseen scene.
	if acc < 0.70 {
		t.Fatalf("inference accuracy %.4f below 0.70", acc)
	}
}

// TestPredictTileShape checks one tile through the session predictor,
// the path WriteFig14Panels and every other inference caller take.
func TestPredictTileShape(t *testing.T) {
	m, err := unet.New[float64](unet.Config{Depth: 2, BaseChannels: 4, InChannels: 3, Classes: 3, Seed: 1})
	if err != nil {
		t.Fatalf("model: %v", err)
	}
	img := raster.NewRGB(16, 16)
	labs, err := NewSessionPredictor(m, 0).PredictTiles([]*raster.RGB{img})
	if err != nil {
		t.Fatalf("predict: %v", err)
	}
	if len(labs) != 1 {
		t.Fatalf("%d label maps for one tile", len(labs))
	}
	if lab := labs[0]; lab.W != 16 || lab.H != 16 {
		t.Fatalf("label map %dx%d", lab.W, lab.H)
	}
}

// mustScene renders a quick-config scene for integration tests.
func mustScene(t *testing.T, seed uint64) *scene.Scene {
	t.Helper()
	cfg := scene.DefaultConfig(seed)
	cfg.W, cfg.H = 128, 128
	sc, err := scene.Generate(cfg)
	if err != nil {
		t.Fatalf("scene: %v", err)
	}
	return sc
}
