package core

import (
	"testing"
)

// TestRunAccuracyQuick is the end-to-end pipeline test at reduced scale:
// it must reproduce the *signs* of Table IV — filtering improves both
// models, and U-Net-Auto tracks U-Net-Man closely — without asserting
// the paper's absolute numbers.
func TestRunAccuracyQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline run; skipped with -short")
	}
	cfg := QuickAccuracyConfig(1234)
	cfg.Progress = func(stage string) { t.Logf("stage: %s", stage) }
	res, err := RunAccuracy(cfg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	t.Logf("scenes=%d tiles=%d train=%d test=%d",
		res.Scenes, res.Tiles, res.TrainTiles, res.TestTiles)
	t.Logf("Man: orig %.4f filt %.4f | Auto: orig %.4f filt %.4f",
		res.ManOrig.Accuracy, res.ManFilt.Accuracy, res.AutoOrig.Accuracy, res.AutoFilt.Accuracy)
	t.Logf("SSIM orig %.4f filt %.4f | buckets cloudy=%d clear=%d",
		res.SSIMOriginal, res.SSIMFiltered, res.CloudyTest, res.ClearTest)

	if res.ManFilt.Accuracy < 0.85 || res.AutoFilt.Accuracy < 0.85 {
		t.Errorf("filtered accuracy too low: man %.4f auto %.4f", res.ManFilt.Accuracy, res.AutoFilt.Accuracy)
	}
	if res.ManFilt.Accuracy <= res.ManOrig.Accuracy-0.02 {
		t.Errorf("filtering should not hurt U-Net-Man: %.4f vs %.4f", res.ManFilt.Accuracy, res.ManOrig.Accuracy)
	}
	diff := res.AutoFilt.Accuracy - res.ManFilt.Accuracy
	if diff < -0.08 {
		t.Errorf("U-Net-Auto much worse than U-Net-Man on filtered data: %.4f vs %.4f", res.AutoFilt.Accuracy, res.ManFilt.Accuracy)
	}
	if res.SSIMFiltered <= res.SSIMOriginal {
		t.Errorf("filtered auto-label SSIM %.4f not above original %.4f", res.SSIMFiltered, res.SSIMOriginal)
	}
}
