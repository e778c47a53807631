// Package colorspace implements the RGB↔HSV conversions the workflow uses
// for cloud filtering and color-threshold segmentation. It follows the
// OpenCV 8-bit convention the paper's pipeline relies on: hue is stored in
// [0,180) (degrees halved to fit a byte), saturation and value in [0,255].
// The paper's published thresholds — e.g. thick ice (0,0,205)–(185,255,255)
// — are expressed in this convention.
//
// All conversions are pure per-pixel integer functions — deterministic
// on every platform — and the *Rows variants expose half-open row
// stripes so callers (autolabel, cloudfilter) can parallelize over
// pool.Shared() with byte-identical output at any worker count.
package colorspace

import "seaice/internal/raster"

// HSV is one pixel in OpenCV 8-bit HSV encoding.
type HSV struct {
	H uint8 // hue/2, in [0,180)
	S uint8 // saturation, [0,255]
	V uint8 // value (brightness), [0,255]
}

// RGBToHSV converts a single 8-bit RGB pixel to OpenCV-convention HSV.
func RGBToHSV(r, g, b uint8) HSV {
	ri, gi, bi := int(r), int(g), int(b)
	v := ri
	if gi > v {
		v = gi
	}
	if bi > v {
		v = bi
	}
	mn := ri
	if gi < mn {
		mn = gi
	}
	if bi < mn {
		mn = bi
	}
	delta := v - mn

	var s int
	if v != 0 {
		s = (delta * 255) / v
	}

	var h int
	if delta != 0 {
		switch v {
		case ri:
			h = (30 * (gi - bi)) / delta
		case gi:
			h = 60 + (30*(bi-ri))/delta
		default:
			h = 120 + (30*(ri-gi))/delta
		}
		if h < 0 {
			h += 180
		}
	}
	return HSV{H: uint8(h), S: uint8(s), V: uint8(v)}
}

// HSVToRGB converts an OpenCV-convention HSV pixel back to RGB. The
// conversion is exact for the value channel and within quantization error
// for hue and saturation.
func HSVToRGB(p HSV) (r, g, b uint8) {
	if p.S == 0 {
		return p.V, p.V, p.V
	}
	h := float64(p.H) * 2 // back to degrees [0,360)
	s := float64(p.S) / 255
	v := float64(p.V)

	sector := int(h / 60)
	if sector > 5 {
		sector = 5
	}
	f := h/60 - float64(sector)
	pp := v * (1 - s)
	q := v * (1 - s*f)
	t := v * (1 - s*(1-f))

	var rf, gf, bf float64
	switch sector {
	case 0:
		rf, gf, bf = v, t, pp
	case 1:
		rf, gf, bf = q, v, pp
	case 2:
		rf, gf, bf = pp, v, t
	case 3:
		rf, gf, bf = pp, q, v
	case 4:
		rf, gf, bf = t, pp, v
	default:
		rf, gf, bf = v, pp, q
	}
	return round8(rf), round8(gf), round8(bf)
}

func round8(v float64) uint8 {
	if v <= 0 {
		return 0
	}
	if v >= 255 {
		return 255
	}
	return uint8(v + 0.5)
}

// Planes holds a whole image converted to HSV as three planar channels,
// which is the layout the threshold and filter kernels iterate over.
type Planes struct {
	W, H int
	Hue  []uint8
	Sat  []uint8
	Val  []uint8
}

// NewPlanes allocates empty planar HSV channels for a w×h image.
func NewPlanes(w, h int) *Planes {
	n := w * h
	return &Planes{
		W: w, H: h,
		Hue: make([]uint8, n),
		Sat: make([]uint8, n),
		Val: make([]uint8, n),
	}
}

// ToHSV converts an RGB raster into planar HSV channels.
func ToHSV(img *raster.RGB) *Planes {
	p := NewPlanes(img.W, img.H)
	ToHSVRows(img, p, 0, img.H)
	return p
}

// ToHSVRows converts pixel rows [y0, y1) of img into p, which must match
// img's dimensions. Rows are independent, so stripe workers can convert
// disjoint row ranges of one Planes concurrently.
func ToHSVRows(img *raster.RGB, p *Planes, y0, y1 int) {
	for i := y0 * img.W; i < y1*img.W; i++ {
		px := RGBToHSV(img.Pix[3*i], img.Pix[3*i+1], img.Pix[3*i+2])
		p.Hue[i] = px.H
		p.Sat[i] = px.S
		p.Val[i] = px.V
	}
}

// ToRGB converts planar HSV channels back into an RGB raster.
func (p *Planes) ToRGB() *raster.RGB {
	img := raster.NewRGB(p.W, p.H)
	for i := 0; i < p.W*p.H; i++ {
		r, g, b := HSVToRGB(HSV{H: p.Hue[i], S: p.Sat[i], V: p.Val[i]})
		img.Pix[3*i], img.Pix[3*i+1], img.Pix[3*i+2] = r, g, b
	}
	return img
}

// ValPlane extracts only the value (brightness) channel of an RGB image as
// a grayscale raster; the cloud filter operates chiefly on this channel.
func ValPlane(img *raster.RGB) *raster.Gray {
	g := raster.NewGray(img.W, img.H)
	for i := 0; i < img.W*img.H; i++ {
		r, gr, b := img.Pix[3*i], img.Pix[3*i+1], img.Pix[3*i+2]
		v := r
		if gr > v {
			v = gr
		}
		if b > v {
			v = b
		}
		g.Pix[i] = v
	}
	return g
}

// SatVal extracts the saturation and value channels of an RGB image — the
// S and V planes of ToHSV, without computing the hue, which the cloud
// filter never reads.
func SatVal(img *raster.RGB) (sat, val *raster.Gray) {
	sat, val = raster.NewGray(img.W, img.H), raster.NewGray(img.W, img.H)
	for i := range val.Pix {
		r, g, b := int(img.Pix[3*i]), int(img.Pix[3*i+1]), int(img.Pix[3*i+2])
		v, mn := max(r, g, b), min(r, g, b)
		val.Pix[i] = uint8(v)
		if v != 0 {
			sat.Pix[i] = uint8(((v - mn) * 255) / v)
		}
	}
	return sat, val
}

// Bounds is an inclusive HSV box used for color-range segmentation,
// mirroring OpenCV's inRange(lower, upper) semantics.
type Bounds struct {
	Lo, Hi HSV
}

// Contains reports whether the pixel falls inside the box on all three
// channels.
func (b Bounds) Contains(p HSV) bool {
	return p.H >= b.Lo.H && p.H <= b.Hi.H &&
		p.S >= b.Lo.S && p.S <= b.Hi.S &&
		p.V >= b.Lo.V && p.V <= b.Hi.V
}

// InRange produces a binary mask (255 inside, 0 outside) of the pixels of
// planar HSV channels falling inside the bounds.
func InRange(p *Planes, b Bounds) *raster.Gray {
	m := raster.NewGray(p.W, p.H)
	InRangeRows(p, b, m, 0, p.H)
	return m
}

// InRangeRows fills pixel rows [y0, y1) of the mask m, which must match
// p's dimensions; pixels outside the bounds are written as 0, so a dirty
// mask row range is fully overwritten.
func InRangeRows(p *Planes, b Bounds, m *raster.Gray, y0, y1 int) {
	for i := y0 * p.W; i < y1*p.W; i++ {
		if b.Contains(HSV{H: p.Hue[i], S: p.Sat[i], V: p.Val[i]}) {
			m.Pix[i] = 255
		} else {
			m.Pix[i] = 0
		}
	}
}
