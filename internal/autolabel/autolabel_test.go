package autolabel

import (
	"testing"
	"testing/quick"

	"seaice/internal/colorspace"
	"seaice/internal/noise"
	"seaice/internal/raster"
)

func TestPaperThresholdsValid(t *testing.T) {
	if err := PaperThresholds().Validate(); err != nil {
		t.Fatalf("published thresholds rejected: %v", err)
	}
}

func TestValidateRejectsGapsAndOverlaps(t *testing.T) {
	th := PaperThresholds()
	th.ThinIce.Lo.V = 40 // gap between water (≤30) and thin (≥40)
	if err := th.Validate(); err == nil {
		t.Fatal("expected gap to be rejected")
	}
	th = PaperThresholds()
	th.Water.Hi.V = 50 // overlap with thin (≥31)
	if err := th.Validate(); err == nil {
		t.Fatal("expected overlap to be rejected")
	}
}

// TestMasksPartitionImage is the paper's "non-intersecting borders"
// property: for any image, the three masks are pairwise disjoint and
// jointly cover every pixel.
func TestMasksPartitionImage(t *testing.T) {
	f := func(seed uint64) bool {
		rng := noise.NewRNG(seed, 1)
		img := raster.NewRGB(16, 16)
		for i := range img.Pix {
			img.Pix[i] = uint8(rng.Intn(256))
		}
		m := segment(img, PaperThresholds())
		for i := 0; i < 256; i++ {
			claims := 0
			if m.ThickIce.Pix[i] != 0 {
				claims++
			}
			if m.ThinIce.Pix[i] != 0 {
				claims++
			}
			if m.Water.Pix[i] != 0 {
				claims++
			}
			if claims != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestLabelMatchesValueBand: the merged label must agree with the pixel's
// HSV value band.
func TestLabelMatchesValueBand(t *testing.T) {
	rng := noise.NewRNG(3, 1)
	img := raster.NewRGB(32, 32)
	for i := range img.Pix {
		img.Pix[i] = uint8(rng.Intn(256))
	}
	lab, err := LabelPaper(img)
	if err != nil {
		t.Fatalf("label: %v", err)
	}
	for i := 0; i < 32*32; i++ {
		v := colorspace.RGBToHSV(img.Pix[3*i], img.Pix[3*i+1], img.Pix[3*i+2]).V
		var want raster.Class
		switch {
		case v >= 205:
			want = raster.ClassThickIce
		case v >= 31:
			want = raster.ClassThinIce
		default:
			want = raster.ClassWater
		}
		if lab.Pix[i] != want {
			t.Fatalf("pixel %d (V=%d) labeled %v, want %v", i, v, lab.Pix[i], want)
		}
	}
}

func TestSegmentMaskCountsConsistent(t *testing.T) {
	rng := noise.NewRNG(6, 1)
	img := raster.NewRGB(20, 20)
	for i := range img.Pix {
		img.Pix[i] = uint8(rng.Intn(256))
	}
	m := segment(img, PaperThresholds())
	lab, _ := merge(m)
	counts := lab.Counts()
	water, thick := 0, 0
	for i := range m.Water.Pix {
		if m.Water.Pix[i] != 0 {
			water++
		}
		if m.ThickIce.Pix[i] != 0 {
			thick++
		}
	}
	if water != counts[raster.ClassWater] {
		t.Fatalf("water mask %d vs labels %d", water, counts[raster.ClassWater])
	}
	if thick != counts[raster.ClassThickIce] {
		t.Fatalf("thick mask %d vs labels %d", thick, counts[raster.ClassThickIce])
	}
}

func TestMergeSizeMismatch(t *testing.T) {
	m := Masks{
		ThickIce: raster.NewGray(4, 4),
		ThinIce:  raster.NewGray(4, 4),
		Water:    raster.NewGray(5, 4),
	}
	if _, err := merge(m); err == nil {
		t.Fatal("expected size-mismatch error")
	}
}

// TestPureColorPatches: canonical pixels land in the right classes.
func TestPureColorPatches(t *testing.T) {
	img := raster.NewRGB(3, 1)
	img.Set(0, 0, 250, 250, 250) // bright white → thick
	img.Set(1, 0, 60, 80, 120)   // mid blue-gray → thin
	img.Set(2, 0, 5, 10, 20)     // near black → water
	lab, err := LabelPaper(img)
	if err != nil {
		t.Fatalf("label: %v", err)
	}
	want := []raster.Class{raster.ClassThickIce, raster.ClassThinIce, raster.ClassWater}
	for i, w := range want {
		if lab.Pix[i] != w {
			t.Fatalf("pixel %d labeled %v, want %v", i, lab.Pix[i], w)
		}
	}
}

// TestValidateRejectsWraparound is the uint8 regression: with byte
// arithmetic, Water.Hi.V=255 makes Water.Hi.V+1 wrap to 0, so a config
// whose bands fully overlap used to pass the contiguity check.
func TestValidateRejectsWraparound(t *testing.T) {
	th := PaperThresholds()
	th.Water.Hi.V = 255 // water covers everything…
	th.ThinIce.Lo.V = 0 // …and thin starts at 0: fully overlapping
	if err := th.Validate(); err == nil {
		t.Fatal("wraparound config (water 0-255, thin 0-204) accepted")
	}
	th = PaperThresholds()
	th.ThinIce.Hi.V = 255 // same wrap on the thin/thick boundary
	th.ThickIce.Lo.V = 0
	if err := th.Validate(); err == nil {
		t.Fatal("wraparound config (thin 31-255, thick 0-255) accepted")
	}
}

// TestOverlapResolvesBrightestFirst pins the documented multi-claim rule
// for non-paper thresholds: a pixel inside several boxes takes the
// brightest class, so thin beats water (the pre-fix code checked water
// before the thin default) and thick beats both. Asserted on merge and on
// the fused Label path, which must agree.
func TestOverlapResolvesBrightestFirst(t *testing.T) {
	th := PaperThresholds()
	th.Water.Hi.V = 60 // overlaps thin ice on V in [31,60]

	img := raster.NewRGB(2, 1)
	img.Set(0, 0, 45, 45, 45)    // V=45: claimed by water AND thin → thin
	img.Set(1, 0, 220, 220, 220) // V=220: thick only (control)

	lab, err := merge(segment(img, th))
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	fused, err := Label(img, th)
	if err != nil {
		t.Fatalf("label: %v", err)
	}
	for name, got := range map[string]*raster.Labels{"Merge": lab, "Label": fused} {
		if got.Pix[0] != raster.ClassThinIce {
			t.Errorf("%s: water∩thin pixel labeled %v, want ThinIce (brightest-first)", name, got.Pix[0])
		}
		if got.Pix[1] != raster.ClassThickIce {
			t.Errorf("%s: thick pixel labeled %v, want ThickIce", name, got.Pix[1])
		}
	}

	// Thick/thin overlap: thick wins.
	th = PaperThresholds()
	th.ThinIce.Hi.V = 255 // overlaps thick ice on V in [205,255]
	one := raster.NewRGB(1, 1)
	one.Set(0, 0, 230, 230, 230)
	fused, err = Label(one, th)
	if err != nil {
		t.Fatalf("label: %v", err)
	}
	if fused.Pix[0] != raster.ClassThickIce {
		t.Errorf("thick∩thin pixel labeled %v, want ThickIce", fused.Pix[0])
	}

	// Claimed by no box (a gap): still defaults to thin, the middle class.
	th = PaperThresholds()
	th.Water.Hi.V = 20 // V in [21,30] claimed by nobody
	gap := raster.NewRGB(1, 1)
	gap.Set(0, 0, 25, 25, 25)
	fused, err = Label(gap, th)
	if err != nil {
		t.Fatalf("label: %v", err)
	}
	if fused.Pix[0] != raster.ClassThinIce {
		t.Errorf("unclaimed pixel labeled %v, want ThinIce default", fused.Pix[0])
	}
}
