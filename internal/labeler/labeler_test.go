package labeler

import (
	"bytes"
	"strings"
	"testing"

	"seaice/internal/cloudfilter"
	"seaice/internal/pool"
	"seaice/internal/raster"
	"seaice/internal/scene"
)

// cleanScene renders a cloud-free low-noise scene and runs it through
// the thin-cloud filter — the same preprocessing the dataset builder
// applies before labeling — giving cleanly separable band values.
func cleanScene(t *testing.T, seed uint64, size int) *raster.RGB {
	t.Helper()
	cfg := scene.DefaultConfig(seed)
	cfg.W, cfg.H = size, size
	cfg.Clouds = scene.ClearClouds()
	sc, err := scene.Generate(cfg)
	if err != nil {
		t.Fatalf("scene: %v", err)
	}
	return cloudfilter.FilterDefault(sc.Image).Image
}

// cloudyScene renders a scene with the default atmosphere, the harder
// input for the clustering engines.
func cloudyScene(t *testing.T, seed uint64, size int) *raster.RGB {
	t.Helper()
	cfg := scene.DefaultConfig(seed)
	cfg.W, cfg.H = size, size
	sc, err := scene.Generate(cfg)
	if err != nil {
		t.Fatalf("scene: %v", err)
	}
	return cloudfilter.FilterDefault(sc.Image).Image
}

// engines under test, one per table row.
func testEngines() []Labeler {
	return []Labeler{
		PaperHSV(),
		KMeans{Seed: 99},
		KMeans{K: 5, Seed: 99},
		GMM{Seed: 99},
		GMM{K: 4, Seed: 99, Iters: 6},
	}
}

// TestEnginesByteIdenticalAcrossWorkers is the package's core
// determinism property, mirroring the autolabel parallel tests: every
// engine must produce byte-identical labels at any pool.Shared() worker
// count.
func TestEnginesByteIdenticalAcrossWorkers(t *testing.T) {
	img := cloudyScene(t, 777, 96)
	defer pool.SetSharedWorkers(0)
	for _, eng := range testEngines() {
		pool.SetSharedWorkers(1)
		ref, err := eng.Label(img)
		if err != nil {
			t.Fatalf("%s serial: %v", eng.Name(), err)
		}
		for _, workers := range []int{3, 4} {
			pool.SetSharedWorkers(workers)
			got, err := eng.Label(img)
			if err != nil {
				t.Fatalf("%s at %d workers: %v", eng.Name(), workers, err)
			}
			if !bytes.Equal(classBytes(got), classBytes(ref)) {
				t.Fatalf("%s output differs between 1 and %d workers", eng.Name(), workers)
			}
		}
	}
}

// TestEnginesSeedDeterminism: the same seed reproduces the labels
// byte-for-byte across independent runs.
func TestEnginesSeedDeterminism(t *testing.T) {
	img := cloudyScene(t, 778, 64)
	for _, eng := range testEngines() {
		a, err := eng.Label(img)
		if err != nil {
			t.Fatalf("%s: %v", eng.Name(), err)
		}
		b, err := eng.Label(img)
		if err != nil {
			t.Fatalf("%s rerun: %v", eng.Name(), err)
		}
		if !bytes.Equal(classBytes(a), classBytes(b)) {
			t.Fatalf("%s not deterministic across runs with a fixed seed", eng.Name())
		}
	}
}

// TestKMeansAgreementFloor mirrors the related-work result (snippet 1:
// unsupervised K-means on Sentinel-2 band vectors agrees with reference
// labels at 99.6%): on a clean, separable scene the K-means engine must
// agree with the HSV thresholder on at least 99% of pixels.
func TestKMeansAgreementFloor(t *testing.T) {
	img := cleanScene(t, 4242, 128)
	hsv, err := PaperHSV().Label(img)
	if err != nil {
		t.Fatalf("hsv: %v", err)
	}
	km, err := (KMeans{Seed: 4242}).Label(img)
	if err != nil {
		t.Fatalf("kmeans: %v", err)
	}
	agree := agreement(hsv, km)
	if agree < 0.99 {
		t.Fatalf("kmeans vs hsv agreement %.4f below the 0.99 floor", agree)
	}
	t.Logf("kmeans vs hsv agreement on clean scene: %.4f", agree)
}

// TestGMMAgreement: the GMM engine should also land near the HSV labels
// on a separable scene; the floor is slightly looser since EM fits soft
// boundaries.
func TestGMMAgreement(t *testing.T) {
	img := cleanScene(t, 4242, 128)
	hsv, err := PaperHSV().Label(img)
	if err != nil {
		t.Fatalf("hsv: %v", err)
	}
	gm, err := (GMM{Seed: 4242}).Label(img)
	if err != nil {
		t.Fatalf("gmm: %v", err)
	}
	agree := agreement(hsv, gm)
	if agree < 0.95 {
		t.Fatalf("gmm vs hsv agreement %.4f below the 0.95 floor", agree)
	}
	t.Logf("gmm vs hsv agreement on clean scene: %.4f", agree)
}

// TestParseSpecs: CLI spec round trips.
func TestParseSpecs(t *testing.T) {
	cases := []struct {
		spec string
		name string
	}{
		{"", "hsv"},
		{"hsv", "hsv"},
		{"kmeans", "kmeans:8"},
		{"kmeans:5", "kmeans:5"},
		{"gmm", "gmm:3"},
		{"gmm:2", "gmm:2"},
	}
	for _, c := range cases {
		l, err := Parse(c.spec, 7)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.spec, err)
		}
		if l.Name() != c.name {
			t.Fatalf("Parse(%q).Name() = %q, want %q", c.spec, l.Name(), c.name)
		}
	}
	for _, bad := range []string{"kmeanz", "kmeans:0", "kmeans:x", "gmm:-1", "hsv:3"} {
		if _, err := Parse(bad, 7); err == nil {
			t.Fatalf("Parse(%q) accepted", bad)
		}
	}
}

// TestParseClusterCountBounds: a count outside [1, MaxClusters] — or one
// that is not a plain decimal — is rejected by Parse with the "bad
// cluster count" error instead of failing by allocation inside Label.
func TestParseClusterCountBounds(t *testing.T) {
	for _, engine := range []string{"kmeans", "gmm"} {
		for _, c := range []struct {
			arg string
			ok  bool
		}{
			{"0", false}, {"-1", false}, {"1", true}, {"256", true}, {"257", false},
			{"1000000", false}, {"99999999999999999999", false}, {"3 ", false}, {"", false},
		} {
			spec := engine + ":" + c.arg
			l, err := Parse(spec, 7)
			switch {
			case c.ok && err != nil:
				t.Fatalf("Parse(%q): %v", spec, err)
			case c.ok && l.Name() != spec:
				t.Fatalf("Parse(%q).Name() = %q", spec, l.Name())
			case !c.ok && (err == nil || !strings.Contains(err.Error(), "bad cluster count")):
				t.Fatalf("Parse(%q) = %v, %v; want a bad cluster count error", spec, l, err)
			}
		}
	}
	if _, err := Parse("hsv:3", 7); err == nil || strings.Contains(err.Error(), "bad cluster count") {
		t.Fatalf("Parse(hsv:3) = %v; want the hsv-takes-no-count error", err)
	}
}

// FuzzLabelerParse: Parse never panics, and a spec it accepts names a
// configuration that parses back from its own Name to an equal
// Fingerprint (default counts included: "kmeans" ≡ "kmeans:8").
func FuzzLabelerParse(f *testing.F) {
	for _, seed := range []string{
		"", "hsv", "kmeans", "kmeans:4", "kmeans:8", "gmm", "gmm:3", "gmm:256", // README's -labeler values
		"hsv:3", "kmeans:5", "gmm:4", "kmeans:0", "kmeans:257", "gmm:-1", "kmeans:1000000", "kmeans:3 ", "kmeans::", ":", "gmm:0x10",
	} {
		f.Add(seed, uint64(7))
	}
	f.Fuzz(func(t *testing.T, spec string, seed uint64) {
		l, err := Parse(spec, seed)
		if err != nil {
			return
		}
		back, err := Parse(l.Name(), seed)
		if err != nil {
			t.Fatalf("Parse(%q) = %s, whose name does not parse: %v", spec, l.Name(), err)
		}
		if got, want := Fingerprint(back), Fingerprint(l); got != want {
			t.Fatalf("Parse(%q): fingerprint %q, after the round trip through %q: %q", spec, want, l.Name(), got)
		}
	})
}

// TestFingerprintSeparatesEngines: fingerprints must differ across
// engines and across configurations of the same engine, and nil must
// fall back to the paper's hsv engine.
func TestFingerprintSeparatesEngines(t *testing.T) {
	fps := map[string]string{}
	for _, l := range []Labeler{
		PaperHSV(),
		KMeans{Seed: 1}, KMeans{Seed: 2}, KMeans{K: 5, Seed: 1},
		GMM{Seed: 1}, GMM{Seed: 1, Iters: 30},
	} {
		fp := Fingerprint(l)
		if prev, dup := fps[fp]; dup {
			t.Fatalf("fingerprint collision: %q for %s and %s", fp, prev, l.Name())
		}
		fps[fp] = l.Name()
	}
	if Fingerprint(nil) != Fingerprint(PaperHSV()) {
		t.Fatalf("nil fingerprint %q, want the hsv default %q", Fingerprint(nil), Fingerprint(PaperHSV()))
	}
}

// TestClassOfCenter pins the centroid→class brightness bands.
func TestClassOfCenter(t *testing.T) {
	cases := []struct {
		c    [3]float64
		want raster.Class
	}{
		{[3]float64{0.02, 0.04, 0.08}, raster.ClassWater},    // V≈20
		{[3]float64{0.2, 0.3, 0.5}, raster.ClassThinIce},     // V≈128
		{[3]float64{0.95, 0.95, 0.95}, raster.ClassThickIce}, // V≈242
	}
	for _, c := range cases {
		if got := classOfCenter(c.c); got != c.want {
			t.Fatalf("classOfCenter(%v) = %v, want %v", c.c, got, c.want)
		}
	}
}

// classBytes views a label map's classes as raw bytes for comparison.
func classBytes(l *raster.Labels) []byte {
	out := make([]byte, len(l.Pix))
	for i, c := range l.Pix {
		out[i] = byte(c)
	}
	return out
}

// agreement returns the fraction of matching pixels.
func agreement(a, b *raster.Labels) float64 {
	match := 0
	for i := range a.Pix {
		if a.Pix[i] == b.Pix[i] {
			match++
		}
	}
	return float64(match) / float64(len(a.Pix))
}
