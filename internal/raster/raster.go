// Package raster provides the image containers used throughout the sea-ice
// workflow: 8-bit RGB and grayscale rasters, float rasters for intermediate
// filter results, and class-label maps. It also provides scene tiling and
// stitching (the paper splits 2048² Sentinel-2 scenes into 256² tiles for
// training and stitches predictions back together for inference) and PNG
// interop with the standard library image packages.
//
// Pixels are stored row-major. RGB rasters are interleaved (3 bytes per
// pixel) to match the memory layout the color-space and filtering code
// iterates over.
//
// Split/Stitch enumerate tiles in deterministic row-major grid order —
// the order the dataset, pipeline, and inference layers all assume when
// they index tiles by position — and rasters carry no hidden state, so
// concurrent readers (the pipeline's stage workers) are safe.
package raster

import "fmt"

// RGB is an 8-bit interleaved RGB raster.
type RGB struct {
	W, H int
	Pix  []uint8 // len == 3*W*H, row-major, R G B per pixel
}

// NewRGB returns a zeroed (black) RGB raster of the given size.
func NewRGB(w, h int) *RGB {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("raster: invalid RGB size %dx%d", w, h))
	}
	return &RGB{W: w, H: h, Pix: make([]uint8, 3*w*h)}
}

// At returns the pixel at (x, y).
func (m *RGB) At(x, y int) (r, g, b uint8) {
	i := 3 * (y*m.W + x)
	return m.Pix[i], m.Pix[i+1], m.Pix[i+2]
}

// Set stores the pixel at (x, y).
func (m *RGB) Set(x, y int, r, g, b uint8) {
	i := 3 * (y*m.W + x)
	m.Pix[i], m.Pix[i+1], m.Pix[i+2] = r, g, b
}

// Clone returns a deep copy.
func (m *RGB) Clone() *RGB {
	c := NewRGB(m.W, m.H)
	copy(c.Pix, m.Pix)
	return c
}

// Bounds reports the raster dimensions.
func (m *RGB) Bounds() (w, h int) { return m.W, m.H }

// Gray is an 8-bit single-channel raster. It doubles as a binary mask with
// the convention 0 = background, 255 = foreground (matching OpenCV masks).
type Gray struct {
	W, H int
	Pix  []uint8
}

// NewGray returns a zeroed grayscale raster.
func NewGray(w, h int) *Gray {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("raster: invalid Gray size %dx%d", w, h))
	}
	return &Gray{W: w, H: h, Pix: make([]uint8, w*h)}
}

// At returns the value at (x, y).
func (m *Gray) At(x, y int) uint8 { return m.Pix[y*m.W+x] }

// Set stores the value at (x, y).
func (m *Gray) Set(x, y int, v uint8) { m.Pix[y*m.W+x] = v }

// Clone returns a deep copy.
func (m *Gray) Clone() *Gray {
	c := NewGray(m.W, m.H)
	copy(c.Pix, m.Pix)
	return c
}

// Fill sets every pixel to v.
func (m *Gray) Fill(v uint8) {
	for i := range m.Pix {
		m.Pix[i] = v
	}
}

// Bounds reports the raster dimensions.
func (m *Gray) Bounds() (w, h int) { return m.W, m.H }

// Float is a float64 single-channel raster used for intermediate filter
// computations where 8-bit precision would accumulate rounding error.
type Float struct {
	W, H int
	Pix  []float64
}

// NewFloat returns a zeroed float raster.
func NewFloat(w, h int) *Float {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("raster: invalid Float size %dx%d", w, h))
	}
	return &Float{W: w, H: h, Pix: make([]float64, w*h)}
}

// At returns the value at (x, y).
func (m *Float) At(x, y int) float64 { return m.Pix[y*m.W+x] }

// Set stores the value at (x, y).
func (m *Float) Set(x, y int, v float64) { m.Pix[y*m.W+x] = v }

// FromGray converts an 8-bit raster to float values in [0,255].
func FromGray(g *Gray) *Float {
	f := NewFloat(g.W, g.H)
	for i, v := range g.Pix {
		f.Pix[i] = float64(v)
	}
	return f
}

// ToGray converts the float raster back to 8 bits, clamping to [0,255]
// and rounding to nearest.
func (m *Float) ToGray() *Gray {
	g := NewGray(m.W, m.H)
	for i, v := range m.Pix {
		g.Pix[i] = clampU8(v)
	}
	return g
}

func clampU8(v float64) uint8 {
	if v <= 0 {
		return 0
	}
	if v >= 255 {
		return 255
	}
	return uint8(v + 0.5)
}

// Class identifies one of the paper's three sea-ice surface classes.
type Class uint8

// The three classes, ordered by increasing brightness: open water is the
// darkest surface (HSV value ≤ 30 in the paper's thresholds), thin/young
// ice is intermediate (31–204), and thick/snow-covered ice is the
// brightest (≥ 205).
const (
	ClassWater Class = iota
	ClassThinIce
	ClassThickIce
	NumClasses = 3
)

// String returns the class name used in reports and confusion matrices.
func (c Class) String() string {
	switch c {
	case ClassWater:
		return "open-water"
	case ClassThinIce:
		return "thin-ice"
	case ClassThickIce:
		return "thick-ice"
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// Labels is a per-pixel class map.
type Labels struct {
	W, H int
	Pix  []Class
}

// NewLabels returns a label map initialized to ClassWater.
func NewLabels(w, h int) *Labels {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("raster: invalid Labels size %dx%d", w, h))
	}
	return &Labels{W: w, H: h, Pix: make([]Class, w*h)}
}

// At returns the class at (x, y).
func (m *Labels) At(x, y int) Class { return m.Pix[y*m.W+x] }

// Set stores the class at (x, y).
func (m *Labels) Set(x, y int, c Class) { m.Pix[y*m.W+x] = c }

// Clone returns a deep copy.
func (m *Labels) Clone() *Labels {
	c := NewLabels(m.W, m.H)
	copy(c.Pix, m.Pix)
	return c
}

// Counts returns the number of pixels per class.
func (m *Labels) Counts() [NumClasses]int {
	var n [NumClasses]int
	for _, c := range m.Pix {
		if int(c) < NumClasses {
			n[c]++
		}
	}
	return n
}

// Render colors the label map using the paper's legend: red for
// thick/snow-covered ice, blue for thin/young ice, green for open water.
func (m *Labels) Render() *RGB {
	out := NewRGB(m.W, m.H)
	for i, c := range m.Pix {
		var r, g, b uint8
		switch c {
		case ClassThickIce:
			r = 230
		case ClassThinIce:
			b = 230
		case ClassWater:
			g = 180
		}
		out.Pix[3*i], out.Pix[3*i+1], out.Pix[3*i+2] = r, g, b
	}
	return out
}
