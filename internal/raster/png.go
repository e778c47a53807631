package raster

import (
	"fmt"
	"image"
	"image/png"
	"io"
	"os"
	"sync"
)

// ToImage converts the raster to a standard-library image for encoding.
func (m *RGB) ToImage() *image.NRGBA {
	img := image.NewNRGBA(image.Rect(0, 0, m.W, m.H))
	for y := 0; y < m.H; y++ {
		for x := 0; x < m.W; x++ {
			si := 3 * (y*m.W + x)
			di := img.PixOffset(x, y)
			img.Pix[di] = m.Pix[si]
			img.Pix[di+1] = m.Pix[si+1]
			img.Pix[di+2] = m.Pix[si+2]
			img.Pix[di+3] = 0xff
		}
	}
	return img
}

// FromImage converts any standard-library image to an RGB raster,
// discarding alpha.
func FromImage(src image.Image) *RGB {
	b := src.Bounds()
	m := NewRGB(b.Dx(), b.Dy())
	if rgba, ok := src.(*image.RGBA); ok {
		// What png.Decode returns for an opaque 8-bit PNG. At().RGBA()
		// hands back the stored (premultiplied) bytes whatever the alpha,
		// so copying them is the generic loop without a boxed color.Color
		// per pixel.
		for y := 0; y < m.H; y++ {
			row := rgba.Pix[rgba.PixOffset(b.Min.X, b.Min.Y+y):]
			dst := m.Pix[3*y*m.W : 3*(y+1)*m.W]
			for x := 0; x < m.W; x++ {
				copy(dst[3*x:3*x+3], row[4*x:4*x+3])
			}
		}
		return m
	}
	for y := 0; y < m.H; y++ {
		for x := 0; x < m.W; x++ {
			r, g, bl, _ := src.At(b.Min.X+x, b.Min.Y+y).RGBA()
			m.Set(x, y, uint8(r>>8), uint8(g>>8), uint8(bl>>8))
		}
	}
	return m
}

// pngEncoder is the one encoder every PNG this package writes goes
// through. Its output is png.Encode's byte for byte; what it adds is the
// buffer pool, so the ≈0.9 MB deflate state and the row buffers of one
// encode are reused by the next instead of allocated per image — the
// serve reply path encodes one PNG per request.
var pngEncoder = png.Encoder{BufferPool: new(pngBuffers)}

// pngBuffers is a sync.Pool behind png.EncoderBufferPool.
type pngBuffers struct{ pool sync.Pool }

func (b *pngBuffers) Get() *png.EncoderBuffer {
	eb, _ := b.pool.Get().(*png.EncoderBuffer)
	return eb // nil on a miss: the encoder then allocates a fresh one
}

func (b *pngBuffers) Put(eb *png.EncoderBuffer) { b.pool.Put(eb) }

// EncodePNG writes the raster as a PNG stream.
func (m *RGB) EncodePNG(w io.Writer) error {
	return pngEncoder.Encode(w, m.ToImage())
}

// WritePNG writes the raster to a PNG file.
func (m *RGB) WritePNG(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("raster: %w", err)
	}
	defer f.Close()
	if err := m.EncodePNG(f); err != nil {
		return fmt.Errorf("raster: encode %s: %w", path, err)
	}
	return f.Close()
}

// ReadPNG loads a PNG file into an RGB raster.
func ReadPNG(path string) (*RGB, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("raster: %w", err)
	}
	defer f.Close()
	img, err := png.Decode(f)
	if err != nil {
		return nil, fmt.Errorf("raster: decode %s: %w", path, err)
	}
	return FromImage(img), nil
}

// ToImageGray converts a grayscale raster to a standard-library image.
func (m *Gray) ToImageGray() *image.Gray {
	img := image.NewGray(image.Rect(0, 0, m.W, m.H))
	copy(img.Pix, m.Pix)
	return img
}

// WritePNG writes the grayscale raster to a PNG file.
func (m *Gray) WritePNG(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("raster: %w", err)
	}
	defer f.Close()
	if err := pngEncoder.Encode(f, m.ToImageGray()); err != nil {
		return fmt.Errorf("raster: encode %s: %w", path, err)
	}
	return f.Close()
}

// SideBySide lays out images horizontally with a 2-pixel separator, used
// for the qualitative figure panels (Fig 14). All images must share the
// same height.
func SideBySide(images ...*RGB) (*RGB, error) {
	if len(images) == 0 {
		return nil, fmt.Errorf("raster: SideBySide needs at least one image")
	}
	const sep = 2
	h := images[0].H
	w := 0
	for i, im := range images {
		if im.H != h {
			return nil, fmt.Errorf("raster: SideBySide image %d height %d != %d", i, im.H, h)
		}
		w += im.W
	}
	w += sep * (len(images) - 1)
	out := NewRGB(w, h)
	for i := range out.Pix {
		out.Pix[i] = 255 // white background for separators
	}
	x0 := 0
	for _, im := range images {
		for y := 0; y < h; y++ {
			dst := 3 * (y*out.W + x0)
			src := 3 * y * im.W
			copy(out.Pix[dst:dst+3*im.W], im.Pix[src:src+3*im.W])
		}
		x0 += im.W + sep
	}
	return out, nil
}
