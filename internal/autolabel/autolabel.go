// Package autolabel implements the paper's central contribution: automatic
// labeling of Sentinel-2 sea-ice imagery by HSV color-threshold
// segmentation (§III-B). Three non-intersecting HSV boxes — determined by
// the authors by inspecting Ross Sea summer imagery — produce three binary
// masks (thick/snow-covered ice, thin/young ice, open water) which are
// merged into a per-pixel class map used as training labels for the U-Net.
//
// Parallelism/bit-identity guarantees: segment and Label stripe rows
// across pool.Shared(); every pixel's class depends only on that pixel's
// HSV value, so the output is byte-identical to the serial path at any
// worker count (asserted in the package tests). Label fuses the
// three-mask classification into one pass over the image.
package autolabel

import (
	"fmt"

	"seaice/internal/colorspace"
	"seaice/internal/pool"
	"seaice/internal/raster"
)

// minStripeRows is the smallest per-worker row stripe: below this the
// per-pixel work cannot amortize the pool dispatch.
const minStripeRows = 32

// Thresholds holds the HSV box per class.
type Thresholds struct {
	ThickIce colorspace.Bounds
	ThinIce  colorspace.Bounds
	Water    colorspace.Bounds
}

// PaperThresholds returns the published Ross Sea summer-season limits
// (§III-B): thick ice (0,0,205)–(185,255,255), thin ice (0,0,31)–
// (185,255,204), open water (0,0,0)–(185,255,30). The paper's upper hue
// bound of 185 exceeds OpenCV's hue range [0,180) and therefore acts as
// "any hue"; we keep the published value for fidelity.
func PaperThresholds() Thresholds {
	anyHue := uint8(185)
	return Thresholds{
		ThickIce: colorspace.Bounds{
			Lo: colorspace.HSV{H: 0, S: 0, V: 205},
			Hi: colorspace.HSV{H: anyHue, S: 255, V: 255},
		},
		ThinIce: colorspace.Bounds{
			Lo: colorspace.HSV{H: 0, S: 0, V: 31},
			Hi: colorspace.HSV{H: anyHue, S: 255, V: 204},
		},
		Water: colorspace.Bounds{
			Lo: colorspace.HSV{H: 0, S: 0, V: 0},
			Hi: colorspace.HSV{H: anyHue, S: 255, V: 30},
		},
	}
}

// Validate checks that the three value bands are non-intersecting and
// jointly cover [0,255] — the property the paper calls "non-intersecting
// borders [that] can be readily evaluated against individual pixels".
func (t Thresholds) Validate() error {
	// Compare in int: uint8 arithmetic would wrap 255+1 to 0, letting a
	// degenerate config like Water.Hi.V=255, ThinIce.Lo.V=0 (fully
	// overlapping bands) pass as "contiguous".
	if int(t.Water.Hi.V)+1 != int(t.ThinIce.Lo.V) {
		return fmt.Errorf("autolabel: water/thin value bands not contiguous: %d vs %d", t.Water.Hi.V, t.ThinIce.Lo.V)
	}
	if int(t.ThinIce.Hi.V)+1 != int(t.ThickIce.Lo.V) {
		return fmt.Errorf("autolabel: thin/thick value bands not contiguous: %d vs %d", t.ThinIce.Hi.V, t.ThickIce.Lo.V)
	}
	if t.Water.Lo.V != 0 || t.ThickIce.Hi.V != 255 {
		return fmt.Errorf("autolabel: value bands do not cover [0,255]")
	}
	return nil
}

// Masks holds the three binary class masks produced by segmentation.
type Masks struct {
	ThickIce *raster.Gray
	ThinIce  *raster.Gray
	Water    *raster.Gray
}

// segment converts the image to HSV and produces the three class masks
// with OpenCV-style inRange tests. Pixel rows are independent, so the
// image is split into row stripes distributed over the shared pool — the
// same Fig-9 parallelization the paper gets from its multiprocessing pool
// — and the output is byte-identical at any worker count.
func segment(img *raster.RGB, t Thresholds) Masks {
	hsv := colorspace.NewPlanes(img.W, img.H)
	m := Masks{
		ThickIce: raster.NewGray(img.W, img.H),
		ThinIce:  raster.NewGray(img.W, img.H),
		Water:    raster.NewGray(img.W, img.H),
	}
	pool.Shared().MustMapRanges(img.H, minStripeRows, func(y0, y1 int) {
		colorspace.ToHSVRows(img, hsv, y0, y1)
		colorspace.InRangeRows(hsv, t.ThickIce, m.ThickIce, y0, y1)
		colorspace.InRangeRows(hsv, t.ThinIce, m.ThinIce, y0, y1)
		colorspace.InRangeRows(hsv, t.Water, m.Water, y0, y1)
	})
	return m
}

// merge combines the class masks into a label map. Pixels claimed by no
// mask (possible only with non-paper thresholds) default to thin ice, the
// middle class; pixels claimed by several masks resolve brightest-first,
// but with the paper's contiguous bands neither case occurs.
func merge(m Masks) (*raster.Labels, error) {
	w, h := m.ThickIce.W, m.ThickIce.H
	if m.ThinIce.W != w || m.ThinIce.H != h || m.Water.W != w || m.Water.H != h {
		return nil, fmt.Errorf("autolabel: mask size mismatch")
	}
	out := raster.NewLabels(w, h)
	for i := 0; i < w*h; i++ {
		// Brightest-first: thick before thin before water, so a pixel
		// claimed by overlapping bands resolves to the brightest class.
		switch {
		case m.ThickIce.Pix[i] != 0:
			out.Pix[i] = raster.ClassThickIce
		case m.ThinIce.Pix[i] != 0:
			out.Pix[i] = raster.ClassThinIce
		case m.Water.Pix[i] != 0:
			out.Pix[i] = raster.ClassWater
		default:
			out.Pix[i] = raster.ClassThinIce
		}
	}
	return out, nil
}

// Label runs the full auto-labeling step on one image: segmentation
// followed by the merge. This is the per-tile unit of work that the
// multiprocessing pool and the map-reduce engine parallelize. Instead of
// materializing the three masks it classifies each row stripe in one
// fused pass (convert to HSV, test the three boxes, resolve
// brightest-first with the thin-ice default), which is byte-identical to
// merge(segment(img, t)) — the equivalence tests assert exactly that.
func Label(img *raster.RGB, t Thresholds) (*raster.Labels, error) {
	out := raster.NewLabels(img.W, img.H)
	hsv := colorspace.NewPlanes(img.W, img.H)
	err := pool.Shared().MapRanges(img.H, minStripeRows, func(y0, y1 int) error {
		colorspace.ToHSVRows(img, hsv, y0, y1)
		for i := y0 * img.W; i < y1*img.W; i++ {
			px := colorspace.HSV{H: hsv.Hue[i], S: hsv.Sat[i], V: hsv.Val[i]}
			switch {
			case t.ThickIce.Contains(px):
				out.Pix[i] = raster.ClassThickIce
			case t.ThinIce.Contains(px):
				out.Pix[i] = raster.ClassThinIce
			case t.Water.Contains(px):
				out.Pix[i] = raster.ClassWater
			default:
				out.Pix[i] = raster.ClassThinIce
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// LabelPaper labels with the published Ross Sea thresholds.
func LabelPaper(img *raster.RGB) (*raster.Labels, error) {
	return Label(img, PaperThresholds())
}
