package raster

import (
	"bytes"
	"image"
	"image/png"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

func TestPNGRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "scene.png")
	m := randRGB(11, 20, 14)
	if err := m.WritePNG(path); err != nil {
		t.Fatalf("write: %v", err)
	}
	back, err := ReadPNG(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if back.W != m.W || back.H != m.H {
		t.Fatalf("size %dx%d, want %dx%d", back.W, back.H, m.W, m.H)
	}
	for i := range m.Pix {
		if m.Pix[i] != back.Pix[i] {
			t.Fatalf("pixel byte %d changed through PNG", i)
		}
	}
}

func TestGrayPNG(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "mask.png")
	g := NewGray(8, 8)
	g.Fill(200)
	if err := g.WritePNG(path); err != nil {
		t.Fatalf("write: %v", err)
	}
	back, err := ReadPNG(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	r, gg, b := back.At(3, 3)
	if r != 200 || gg != 200 || b != 200 {
		t.Fatalf("gray pixel came back as (%d,%d,%d)", r, gg, b)
	}
}

func TestReadPNGMissingFile(t *testing.T) {
	if _, err := ReadPNG(filepath.Join(t.TempDir(), "nope.png")); err == nil {
		t.Fatal("expected error for missing file")
	}
}

// TestFromImageRGBAFastPath: the *image.RGBA row copy must be byte-equal
// to the generic At() loop (reached by hiding the concrete type) on an
// opaque image, on one with alpha < 255 (At().RGBA() returns the stored
// premultiplied bytes either way), and on a sub-image whose bounds do not
// start at the origin.
func TestFromImageRGBAFastPath(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	fill := func(opaque bool) *image.RGBA {
		img := image.NewRGBA(image.Rect(0, 0, 23, 17))
		for i := 0; i < len(img.Pix); i += 4 {
			a := 255
			if !opaque {
				a = rng.Intn(256)
			}
			for c := 0; c < 3; c++ { // premultiplied: channels never exceed alpha
				img.Pix[i+c] = uint8(rng.Intn(a + 1))
			}
			img.Pix[i+3] = uint8(a)
		}
		return img
	}
	opaque, translucent := fill(true), fill(false)
	for name, img := range map[string]*image.RGBA{
		"opaque":      opaque,
		"translucent": translucent,
		"sub-image":   translucent.SubImage(image.Rect(5, 3, 19, 12)).(*image.RGBA),
	} {
		got := FromImage(img)
		want := FromImage(struct{ image.Image }{img})
		if got.W != want.W || got.H != want.H || !bytes.Equal(got.Pix, want.Pix) {
			t.Errorf("%s: fast path differs from the generic path", name)
		}
	}
}

// TestPooledEncoderMatchesPNGEncode: the package's pooled encoder writes
// exactly png.Encode's bytes — for rasters of different sizes encoded back
// to back through the same recycled buffers, a label-like flat one
// included, and for the grayscale writer — and a warm encode allocates less
// than png.Encode does, by at least the deflate writer's allocations.
func TestPooledEncoderMatchesPNGEncode(t *testing.T) {
	flat := NewRGB(64, 48)
	for i := range flat.Pix {
		flat.Pix[i] = uint8(i / (3 * 64 * 16) * 90) // three bands, like a rendered label map
	}
	for round := 0; round < 2; round++ { // the second pass encodes over reused buffers
		for i, m := range []*RGB{randRGB(1, 256, 256), flat, randRGB(3, 17, 5)} {
			var got, want bytes.Buffer
			if err := m.EncodePNG(&got); err != nil {
				t.Fatal(err)
			}
			if err := png.Encode(&want, m.ToImage()); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("round %d raster %d: EncodePNG wrote %d bytes that differ from png.Encode's %d", round, i, got.Len(), want.Len())
			}
		}
	}
	g := NewGray(40, 30)
	for i := range g.Pix {
		g.Pix[i] = uint8(i * 7)
	}
	path := filepath.Join(t.TempDir(), "gray.png")
	if err := g.WritePNG(path); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := png.Encode(&want, g.ToImageGray()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatal("Gray.WritePNG differs from png.Encode")
	}

	img := randRGB(5, 256, 256).ToImage()
	var sink bytes.Buffer
	sink.Grow(1 << 20)
	plain := testing.AllocsPerRun(10, func() {
		sink.Reset()
		if err := png.Encode(&sink, img); err != nil {
			t.Fatal(err)
		}
	})
	pooled := testing.AllocsPerRun(10, func() {
		sink.Reset()
		if err := pngEncoder.Encode(&sink, img); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("allocations per 256² encode: png.Encode %.0f, pooled %.0f", plain, pooled)
	// What a fresh EncoderBuffer costs: the encoder itself, the zlib and
	// flate writers with their tables, the bufio writer and the row
	// buffers — at least eight allocations a warm pooled encode skips.
	if pooled > plain-8 {
		t.Fatalf("pooled encode allocates %.0f times per image, png.Encode %.0f: the buffers are not being reused", pooled, plain)
	}
}
