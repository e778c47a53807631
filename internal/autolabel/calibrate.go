package autolabel

import (
	"fmt"

	"seaice/internal/colorspace"
	"seaice/internal/raster"
)

// Calibrate derives HSV value-band thresholds from a labeled sample —
// the paper's stated future work: "for the partial night season of the
// Antarctic, we had to change the color threshold brightness values
// manually … the same color limits may not work for different regions"
// (§IV-B2). Given imagery with reference labels (a few manually labeled
// scenes of the new region/season), it computes per-class brightness
// distributions and places each class boundary at the crossing point
// that minimizes misassigned pixels between the adjacent classes — the
// two-class Bayes threshold on the empirical histograms.
//
// The returned Thresholds keep the paper's structure (hue and saturation
// unconstrained, contiguous value bands) and satisfy Validate.
func Calibrate(images []*raster.RGB, labels []*raster.Labels) (Thresholds, error) {
	if len(images) == 0 || len(images) != len(labels) {
		return Thresholds{}, fmt.Errorf("autolabel: calibrate needs equal nonzero images (%d) and labels (%d)", len(images), len(labels))
	}

	// Per-class brightness histograms.
	var hist [raster.NumClasses][256]int64
	var count [raster.NumClasses]int64
	for k := range images {
		img, lab := images[k], labels[k]
		if img.W != lab.W || img.H != lab.H {
			return Thresholds{}, fmt.Errorf("autolabel: calibrate pair %d size mismatch %dx%d vs %dx%d", k, img.W, img.H, lab.W, lab.H)
		}
		for i := 0; i < img.W*img.H; i++ {
			v := colorspace.RGBToHSV(img.Pix[3*i], img.Pix[3*i+1], img.Pix[3*i+2]).V
			c := lab.Pix[i]
			hist[c][v]++
			count[c]++
		}
	}
	for c := raster.Class(0); c < raster.NumClasses; c++ {
		if count[c] == 0 {
			return Thresholds{}, fmt.Errorf("autolabel: calibration sample has no %v pixels", c)
		}
	}

	waterCeil := bayesBoundary(hist[raster.ClassWater], hist[raster.ClassThinIce])
	thinCeil := bayesBoundary(hist[raster.ClassThinIce], hist[raster.ClassThickIce])
	if waterCeil >= thinCeil {
		return Thresholds{}, fmt.Errorf("autolabel: degenerate calibration (water ceiling %d ≥ thin ceiling %d)", waterCeil, thinCeil)
	}

	anyHue := uint8(185)
	t := Thresholds{
		Water: colorspace.Bounds{
			Lo: colorspace.HSV{V: 0},
			Hi: colorspace.HSV{H: anyHue, S: 255, V: uint8(waterCeil)},
		},
		ThinIce: colorspace.Bounds{
			Lo: colorspace.HSV{V: uint8(waterCeil + 1)},
			Hi: colorspace.HSV{H: anyHue, S: 255, V: uint8(thinCeil)},
		},
		ThickIce: colorspace.Bounds{
			Lo: colorspace.HSV{V: uint8(thinCeil + 1)},
			Hi: colorspace.HSV{H: anyHue, S: 255, V: 255},
		},
	}
	if err := t.Validate(); err != nil {
		return Thresholds{}, fmt.Errorf("autolabel: calibration produced invalid bands: %w", err)
	}
	return t, nil
}

// bayesBoundary returns a value t in [0,254] minimizing
// (darker-class pixels above t) + (brighter-class pixels at or below t) —
// the empirical two-class decision boundary. When the classes are
// separated by an empty brightness gap, every t inside the gap is
// optimal; the midpoint of the optimal plateau is chosen to maximize the
// margin against distribution shift.
func bayesBoundary(dark, bright [256]int64) int {
	var darkTotal int64
	for _, n := range dark {
		darkTotal += n
	}
	first, last, bestErr := 0, 0, int64(1)<<62
	var darkBelow, brightBelow int64
	for t := 0; t < 255; t++ {
		darkBelow += dark[t]
		brightBelow += bright[t]
		misses := (darkTotal - darkBelow) + brightBelow
		if misses < bestErr {
			bestErr = misses
			first, last = t, t
		} else if misses == bestErr {
			last = t
		}
	}
	return (first + last) / 2
}
