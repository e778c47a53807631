package colorspace

import (
	"testing"
	"testing/quick"

	"seaice/internal/noise"
	"seaice/internal/raster"
)

func TestKnownConversions(t *testing.T) {
	cases := []struct {
		r, g, b uint8
		want    HSV
	}{
		{0, 0, 0, HSV{0, 0, 0}},         // black
		{255, 255, 255, HSV{0, 0, 255}}, // white: S=0
		{255, 0, 0, HSV{0, 255, 255}},   // red
		{0, 255, 0, HSV{60, 255, 255}},  // green (120°/2)
		{0, 0, 255, HSV{120, 255, 255}}, // blue (240°/2)
		{128, 128, 128, HSV{0, 0, 128}}, // gray
	}
	for _, c := range cases {
		got := RGBToHSV(c.r, c.g, c.b)
		if got != c.want {
			t.Errorf("RGBToHSV(%d,%d,%d) = %+v, want %+v", c.r, c.g, c.b, got, c.want)
		}
	}
}

// TestValueChannelExact: V must equal max(R,G,B) exactly — the paper's
// class thresholds live on this channel.
func TestValueChannelExact(t *testing.T) {
	f := func(r, g, b uint8) bool {
		v := RGBToHSV(r, g, b).V
		max := r
		if g > max {
			max = g
		}
		if b > max {
			max = b
		}
		return v == max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestHueRange(t *testing.T) {
	f := func(r, g, b uint8) bool {
		return RGBToHSV(r, g, b).H < 180
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestToHSVPlanesMatchPixelConversion(t *testing.T) {
	rng := noise.NewRNG(5, 1)
	img := raster.NewRGB(9, 7)
	for i := range img.Pix {
		img.Pix[i] = uint8(rng.Intn(256))
	}
	p := ToHSV(img)
	for i := 0; i < img.W*img.H; i++ {
		want := RGBToHSV(img.Pix[3*i], img.Pix[3*i+1], img.Pix[3*i+2])
		if p.Hue[i] != want.H || p.Sat[i] != want.S || p.Val[i] != want.V {
			t.Fatalf("plane conversion differs at %d", i)
		}
	}
}

// TestSatValMatchesHSV: SatVal's planes equal RGBToHSV's S and V on every
// 8-bit RGB triple (one 256×256 image of (g, b) per red level).
func TestSatValMatchesHSV(t *testing.T) {
	img := raster.NewRGB(256, 256)
	for r := 0; r < 256; r++ {
		for i := 0; i < 256*256; i++ {
			img.Pix[3*i], img.Pix[3*i+1], img.Pix[3*i+2] = uint8(r), uint8(i/256), uint8(i%256)
		}
		sat, val := SatVal(img)
		for i := range val.Pix {
			want := RGBToHSV(uint8(r), uint8(i/256), uint8(i%256))
			if sat.Pix[i] != want.S || val.Pix[i] != want.V {
				t.Fatalf("rgb(%d,%d,%d): S,V = %d,%d, want %d,%d", r, i/256, i%256, sat.Pix[i], val.Pix[i], want.S, want.V)
			}
		}
	}
}

// TestInRangeMonotone: growing the bounds can only grow the mask.
func TestInRangeMonotone(t *testing.T) {
	rng := noise.NewRNG(7, 1)
	img := raster.NewRGB(16, 16)
	for i := range img.Pix {
		img.Pix[i] = uint8(rng.Intn(256))
	}
	p := ToHSV(img)
	narrow := Bounds{Lo: HSV{0, 0, 100}, Hi: HSV{179, 255, 180}}
	wide := Bounds{Lo: HSV{0, 0, 80}, Hi: HSV{179, 255, 220}}
	mn := InRange(p, narrow)
	mw := InRange(p, wide)
	for i := range mn.Pix {
		if mn.Pix[i] != 0 && mw.Pix[i] == 0 {
			t.Fatalf("widening bounds removed pixel %d from the mask", i)
		}
	}
}

func TestBoundsContains(t *testing.T) {
	b := Bounds{Lo: HSV{0, 0, 31}, Hi: HSV{185, 255, 204}}
	if !b.Contains(HSV{90, 100, 100}) {
		t.Fatal("mid pixel should be inside")
	}
	if b.Contains(HSV{90, 100, 30}) || b.Contains(HSV{90, 100, 205}) {
		t.Fatal("out-of-band value accepted")
	}
}
