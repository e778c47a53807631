package autolabel

import (
	"testing"

	"seaice/internal/metrics"
	"seaice/internal/raster"
	"seaice/internal/scene"
)

// partialNightScene renders the Antarctic partial-night season: the
// surface is dimmed enough that the published summer thresholds misread
// thick ice as thin and thin ice as water (§IV-B2's noted limitation).
func partialNightScene(t *testing.T, seed uint64) *scene.Scene {
	t.Helper()
	cfg := scene.DefaultConfig(seed)
	cfg.W, cfg.H = 256, 256
	cfg.Illumination = 0.55
	cfg.Clouds = scene.ClearClouds()
	sc, err := scene.Generate(cfg)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	return sc
}

// TestSummerThresholdsFailInPartialNight documents the problem Calibrate
// solves: on the same surface, dimming the sun must degrade the published
// summer thresholds substantially (how much depends on the scene's class
// mix — water stays correct under any illumination — so the check is
// differential against the summer rendering of the identical scene).
func TestSummerThresholdsFailInPartialNight(t *testing.T) {
	score := func(illum float64) float64 {
		cfg := scene.DefaultConfig(81)
		cfg.W, cfg.H = 256, 256
		cfg.Illumination = illum
		cfg.Clouds = scene.ClearClouds()
		sc, err := scene.Generate(cfg)
		if err != nil {
			t.Fatalf("generate: %v", err)
		}
		lab, err := LabelPaper(sc.Image)
		if err != nil {
			t.Fatalf("label: %v", err)
		}
		acc, err := metrics.PixelAccuracy(sc.Truth, lab)
		if err != nil {
			t.Fatalf("accuracy: %v", err)
		}
		return acc
	}
	summer := score(1.0)
	night := score(0.55)
	t.Logf("summer thresholds: %.4f at full sun, %.4f at partial night", summer, night)
	if night > summer-0.05 {
		t.Fatalf("partial night degraded summer thresholds only %.4f → %.4f; season effect too weak to exercise calibration", summer, night)
	}
}

// TestCalibrateRecoversPartialNight: calibrating on one labeled
// partial-night scene must restore near-perfect accuracy on another.
func TestCalibrateRecoversPartialNight(t *testing.T) {
	ref := partialNightScene(t, 82)
	th, err := Calibrate([]*raster.RGB{ref.Image}, []*raster.Labels{ref.Truth})
	if err != nil {
		t.Fatalf("calibrate: %v", err)
	}
	if err := th.Validate(); err != nil {
		t.Fatalf("calibrated thresholds invalid: %v", err)
	}

	other := partialNightScene(t, 83)
	lab, err := Label(other.Image, th)
	if err != nil {
		t.Fatalf("label: %v", err)
	}
	acc, err := metrics.PixelAccuracy(other.Truth, lab)
	if err != nil {
		t.Fatalf("accuracy: %v", err)
	}
	t.Logf("calibrated partial-night accuracy on unseen scene: %.4f", acc)
	if acc < 0.95 {
		t.Fatalf("calibrated accuracy %.4f < 0.95", acc)
	}
}

// TestCalibrateOnSummerRecoversPaperStructure: calibrating on summer
// imagery must produce bands close to the published ones.
func TestCalibrateOnSummerRecoversPaperStructure(t *testing.T) {
	cfg := scene.DefaultConfig(84)
	cfg.W, cfg.H = 256, 256
	cfg.Clouds = scene.ClearClouds()
	sc, err := scene.Generate(cfg)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	th, err := Calibrate([]*raster.RGB{sc.Image}, []*raster.Labels{sc.Truth})
	if err != nil {
		t.Fatalf("calibrate: %v", err)
	}
	// The paper's boundaries are 30/31 and 204/205; the renderer leaves
	// gaps, so the empirical boundary lands within the gaps.
	wc := th.Water.Hi.V
	tc := th.ThinIce.Hi.V
	if wc < 26 || wc > 40 {
		t.Errorf("calibrated water ceiling %d far from the paper's 30", wc)
	}
	if tc < 188 || tc > 215 {
		t.Errorf("calibrated thin ceiling %d far from the paper's 204", tc)
	}
}

func TestCalibrateErrors(t *testing.T) {
	if _, err := Calibrate(nil, nil); err == nil {
		t.Fatal("expected empty-input error")
	}
	img := raster.NewRGB(4, 4)
	lab := raster.NewLabels(5, 4)
	if _, err := Calibrate([]*raster.RGB{img}, []*raster.Labels{lab}); err == nil {
		t.Fatal("expected size-mismatch error")
	}
	// all-water labels: missing classes must be rejected
	l2 := raster.NewLabels(4, 4)
	if _, err := Calibrate([]*raster.RGB{img}, []*raster.Labels{l2}); err == nil {
		t.Fatal("expected missing-class error")
	}
}
