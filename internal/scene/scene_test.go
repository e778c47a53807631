package scene

import (
	"sync"
	"testing"

	"seaice/internal/colorspace"
	"seaice/internal/raster"
)

func TestGenerateDeterministic(t *testing.T) {
	cfg := DefaultConfig(77)
	cfg.W, cfg.H = 128, 128
	a, err := Generate(cfg)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	for i := range a.Image.Pix {
		if a.Image.Pix[i] != b.Image.Pix[i] {
			t.Fatalf("same seed produced different scenes at byte %d", i)
		}
	}
	for i := range a.Truth.Pix {
		if a.Truth.Pix[i] != b.Truth.Pix[i] {
			t.Fatalf("same seed produced different truth at %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	cfgA := DefaultConfig(1)
	cfgA.W, cfgA.H = 64, 64
	cfgB := cfgA
	cfgB.Seed = 2
	a, _ := Generate(cfgA)
	b, _ := Generate(cfgB)
	same := 0
	for i := range a.Image.Pix {
		if a.Image.Pix[i] == b.Image.Pix[i] {
			same++
		}
	}
	if same == len(a.Image.Pix) {
		t.Fatal("different seeds produced identical scenes")
	}
}

// TestCleanSurfaceRespectsHSVBands: the renderer's contract with the
// auto-labeler — every clean pixel's value channel must sit inside its
// class's HSV band (§III-B thresholds), up to sensor noise.
func TestCleanSurfaceRespectsHSVBands(t *testing.T) {
	cfg := DefaultConfig(5)
	cfg.W, cfg.H = 256, 256
	cfg.NoiseSigma = 0 // isolate the deterministic surface
	cfg.Clouds = ClearClouds()
	sc, err := Generate(cfg)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	for i := 0; i < cfg.W*cfg.H; i++ {
		v := maxByte(sc.Clean.Pix[3*i], sc.Clean.Pix[3*i+1], sc.Clean.Pix[3*i+2])
		switch sc.Truth.Pix[i] {
		case raster.ClassWater:
			if v > waterVMax {
				t.Fatalf("water pixel %d has V=%d > %d", i, v, waterVMax)
			}
		case raster.ClassThinIce:
			if v < thinVMin || v > thinVMax {
				t.Fatalf("thin-ice pixel %d has V=%d outside [%d,%d]", i, v, thinVMin, thinVMax)
			}
		case raster.ClassThickIce:
			if v < thickVMin {
				t.Fatalf("thick-ice pixel %d has V=%d < %d", i, v, thickVMin)
			}
		}
	}
}

func maxByte(a, b, c uint8) uint8 {
	m := a
	if b > m {
		m = b
	}
	if c > m {
		m = c
	}
	return m
}

// TestAllClassesPresent: a default scene must contain meaningful amounts
// of all three classes — the experiments depend on class diversity.
func TestAllClassesPresent(t *testing.T) {
	cfg := DefaultConfig(9)
	sc, err := Generate(cfg)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	counts := sc.Truth.Counts()
	total := cfg.W * cfg.H
	for cls, n := range counts {
		if n < total/50 {
			t.Fatalf("class %d covers only %d/%d pixels", cls, n, total)
		}
	}
}

// TestCloudsBrightenAndShadowsDarken: the atmospheric model must move
// pixel brightness in the documented directions.
func TestCloudsBrightenAndShadowsDarken(t *testing.T) {
	cfg := DefaultConfig(13)
	cfg.NoiseSigma = 0
	sc, err := Generate(cfg)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	brightened, darkened, checked := 0, 0, 0
	for i := range sc.Truth.Pix {
		a := sc.CloudOpacity.Pix[i]
		sh := sc.Shadow.Pix[i]
		cleanV := maxByte(sc.Clean.Pix[3*i], sc.Clean.Pix[3*i+1], sc.Clean.Pix[3*i+2])
		obsV := maxByte(sc.Image.Pix[3*i], sc.Image.Pix[3*i+1], sc.Image.Pix[3*i+2])
		if a > 0.2 && sh < 0.01 && sc.Truth.Pix[i] == raster.ClassWater {
			checked++
			if obsV > cleanV {
				brightened++
			}
		}
		if sh > 0.15 && a < 0.01 && sc.Truth.Pix[i] == raster.ClassThickIce {
			checked++
			if obsV < cleanV {
				darkened++
			}
		}
	}
	if checked == 0 {
		t.Skip("scene has no isolated cloud/shadow pixels to check")
	}
	if brightened+darkened < checked*9/10 {
		t.Fatalf("atmosphere directionality violated: %d+%d of %d", brightened, darkened, checked)
	}
}

func TestCloudMaskConsistent(t *testing.T) {
	cfg := DefaultConfig(21)
	cfg.W, cfg.H = 128, 128
	sc, _ := Generate(cfg)
	n := 0
	for i := range sc.CloudMask.Pix {
		disturbed := sc.CloudOpacity.Pix[i] >= 0.05 || sc.Shadow.Pix[i] >= 0.05
		masked := sc.CloudMask.Pix[i] != 0
		if disturbed != masked {
			t.Fatalf("mask inconsistent at %d", i)
		}
		if masked {
			n++
		}
	}
	if got := float64(n) / float64(len(sc.CloudMask.Pix)); got != sc.CloudFraction {
		t.Fatalf("cloud fraction %f, mask says %f", sc.CloudFraction, got)
	}
}

func TestClearCloudsProduceNoDisturbance(t *testing.T) {
	cfg := DefaultConfig(33)
	cfg.W, cfg.H = 96, 96
	cfg.Clouds = ClearClouds()
	sc, _ := Generate(cfg)
	if sc.CloudFraction != 0 {
		t.Fatalf("clear spec produced cloud fraction %f", sc.CloudFraction)
	}
}

func TestGenerateValidation(t *testing.T) {
	bad := DefaultConfig(1)
	bad.W = 0
	if _, err := Generate(bad); err == nil {
		t.Fatal("expected error for zero width")
	}
	bad = DefaultConfig(1)
	bad.ThinThreshold = bad.ThickThreshold
	if _, err := Generate(bad); err == nil {
		t.Fatal("expected error for inverted thresholds")
	}
}

func TestCollectionTileArithmetic(t *testing.T) {
	cc := DefaultCollection(4)
	if cc.Scenes != 66 || cc.W != 512 {
		t.Fatalf("default collection changed: %+v", cc)
	}
	// 66 scenes × (512/64)² tiles = 4224, the paper's tile count.
	tiles := cc.Scenes * (cc.W / 64) * (cc.H / 64)
	if tiles != 4224 {
		t.Fatalf("campaign yields %d tiles, want 4224", tiles)
	}
}

func TestCollectionMixesCloudiness(t *testing.T) {
	cc := DefaultCollection(8)
	cc.Scenes = 12
	cc.W, cc.H = 128, 128
	scenes, err := GenerateCollection(cc)
	if err != nil {
		t.Fatalf("collection: %v", err)
	}
	clear, cloudy := 0, 0
	for _, sc := range scenes {
		if sc.CloudFraction < 0.01 {
			clear++
		} else {
			cloudy++
		}
	}
	if clear == 0 || cloudy == 0 {
		t.Fatalf("campaign not mixed: %d clear, %d cloudy", clear, cloudy)
	}
}

func TestGenerateAtMatchesCollection(t *testing.T) {
	cc := DefaultCollection(15)
	cc.Scenes = 3
	cc.W, cc.H = 64, 64
	scenes, err := GenerateCollection(cc)
	if err != nil {
		t.Fatalf("collection: %v", err)
	}
	one, err := GenerateAt(cc, 1)
	if err != nil {
		t.Fatalf("generateAt: %v", err)
	}
	for i := range one.Image.Pix {
		if one.Image.Pix[i] != scenes[1].Image.Pix[i] {
			t.Fatalf("GenerateAt(1) differs from collection scene 1 at %d", i)
		}
	}
	if _, err := GenerateAt(cc, 5); err == nil {
		t.Fatal("expected out-of-range error")
	}

	// concurrent renders each build their own noise samplers, so they
	// share no cache and match the serial loop (run with -race)
	got := make([]*Scene, cc.Scenes)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], _ = GenerateAt(cc, i)
		}(i)
	}
	wg.Wait()
	for i, sc := range got {
		if sc == nil || sceneDigest(sc) != sceneDigest(scenes[i]) {
			t.Fatalf("concurrent GenerateAt(%d) differs from the serial collection", i)
		}
	}
}

// TestSaturationContract: the cloud filter depends on clean thin ice
// keeping saturation ≥ ~51 and clean thick ice staying ≤ ~15.
func TestSaturationContract(t *testing.T) {
	cfg := DefaultConfig(44)
	cfg.W, cfg.H = 256, 256
	cfg.NoiseSigma = 0
	cfg.Clouds = ClearClouds()
	sc, _ := Generate(cfg)
	hsv := colorspace.ToHSV(sc.Clean)
	for i := range sc.Truth.Pix {
		switch sc.Truth.Pix[i] {
		case raster.ClassThinIce:
			if hsv.Sat[i] < 50 {
				t.Fatalf("thin-ice pixel %d has S=%d < 50; cloud filter contract broken", i, hsv.Sat[i])
			}
		case raster.ClassThickIce:
			if hsv.Sat[i] > 15 {
				t.Fatalf("thick-ice pixel %d has S=%d > 15", i, hsv.Sat[i])
			}
		}
	}
}

// BenchmarkGenerate renders one 256² scene with the default atmosphere:
// four noise fields, the veil and its shadow, and the sensor noise.
func BenchmarkGenerate(b *testing.B) {
	cfg := DefaultConfig(42)
	cfg.W, cfg.H = 256, 256
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
