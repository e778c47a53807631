package metrics

import (
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"seaice/internal/noise"
	"seaice/internal/raster"
)

func TestConfusionPerfectDiagonal(t *testing.T) {
	c := NewConfusion(3)
	for cls := 0; cls < 3; cls++ {
		for k := 0; k < 10*(cls+1); k++ {
			c.Add(raster.Class(cls), raster.Class(cls))
		}
	}
	if got := c.Accuracy(); got != 1 {
		t.Fatalf("accuracy %f, want 1", got)
	}
	for _, v := range c.Precision() {
		if v != 1 {
			t.Fatalf("precision %v", c.Precision())
		}
	}
	if c.MacroF1() != 1 {
		t.Fatalf("macro F1 %f", c.MacroF1())
	}
	norm := c.RowNormalized()
	for i := range norm {
		if math.Abs(norm[i][i]-100) > 1e-9 {
			t.Fatalf("diagonal %f, want 100", norm[i][i])
		}
	}
}

func TestConfusionKnownValues(t *testing.T) {
	// 2-class example with hand-computed metrics:
	// true 0: 8 predicted 0, 2 predicted 1
	// true 1: 1 predicted 0, 9 predicted 1
	c := NewConfusion(2)
	add := func(a, b raster.Class, n int) {
		for i := 0; i < n; i++ {
			c.Add(a, b)
		}
	}
	add(0, 0, 8)
	add(0, 1, 2)
	add(1, 0, 1)
	add(1, 1, 9)

	if got, want := c.Accuracy(), 17.0/20; math.Abs(got-want) > 1e-12 {
		t.Fatalf("accuracy %f, want %f", got, want)
	}
	p := c.Precision()
	if math.Abs(p[0]-8.0/9) > 1e-12 || math.Abs(p[1]-9.0/11) > 1e-12 {
		t.Fatalf("precision %v", p)
	}
	r := c.Recall()
	if math.Abs(r[0]-0.8) > 1e-12 || math.Abs(r[1]-0.9) > 1e-12 {
		t.Fatalf("recall %v", r)
	}
	f1 := c.F1()
	wantF1 := 2 * (8.0 / 9) * 0.8 / ((8.0 / 9) + 0.8)
	if math.Abs(f1[0]-wantF1) > 1e-12 {
		t.Fatalf("f1[0] = %f, want %f", f1[0], wantF1)
	}
}

// TestConfusionRowsSumTo100: row normalization is a probability
// distribution per true class.
func TestConfusionRowsSumTo100(t *testing.T) {
	rng := noise.NewRNG(4, 1)
	c := NewConfusion(3)
	for k := 0; k < 500; k++ {
		c.Add(raster.Class(rng.Intn(3)), raster.Class(rng.Intn(3)))
	}
	for i, row := range c.RowNormalized() {
		sum := 0.0
		for _, v := range row {
			sum += v
		}
		if math.Abs(sum-100) > 1e-9 {
			t.Fatalf("row %d sums to %f", i, sum)
		}
	}
}

func TestConfusionString(t *testing.T) {
	a := NewConfusion(3)
	a.Add(0, 1)
	a.Add(0, 1)
	a.Add(2, 2)
	if a.Count[0][1] != 2 || a.Count[2][2] != 1 || a.Total() != 3 {
		t.Fatalf("counts wrong: %v", a.Count)
	}
	s := a.String()
	if !strings.Contains(s, "thin-ice") || !strings.Contains(s, "%") {
		t.Fatalf("render missing class names: %q", s)
	}
}

func TestAddLabelsSizeMismatch(t *testing.T) {
	c := NewConfusion(3)
	if err := c.AddLabels(raster.NewLabels(4, 4), raster.NewLabels(5, 4)); err == nil {
		t.Fatal("expected size error")
	}
}

func TestSSIMIdentityIsOne(t *testing.T) {
	rng := noise.NewRNG(9, 1)
	g := raster.NewGray(32, 32)
	for i := range g.Pix {
		g.Pix[i] = uint8(rng.Intn(256))
	}
	s, err := SSIM(g, g)
	if err != nil {
		t.Fatalf("ssim: %v", err)
	}
	if math.Abs(s-1) > 1e-9 {
		t.Fatalf("SSIM(x,x) = %f", s)
	}
}

func TestSSIMSymmetricAndOrdered(t *testing.T) {
	rng := noise.NewRNG(10, 1)
	a := raster.NewGray(32, 32)
	for i := range a.Pix {
		a.Pix[i] = uint8(rng.Intn(256))
	}
	// small perturbation vs large perturbation
	small := a.Clone()
	big := a.Clone()
	for i := range small.Pix {
		if i%7 == 0 {
			small.Pix[i] ^= 0x08
			big.Pix[i] ^= 0x80
		}
	}
	sAB, _ := SSIM(a, small)
	sBA, _ := SSIM(small, a)
	if math.Abs(sAB-sBA) > 1e-12 {
		t.Fatalf("SSIM not symmetric: %f vs %f", sAB, sBA)
	}
	sBig, _ := SSIM(a, big)
	if sBig >= sAB {
		t.Fatalf("larger distortion scored higher: %f vs %f", sBig, sAB)
	}
}

func TestSSIMErrors(t *testing.T) {
	if _, err := SSIM(raster.NewGray(32, 32), raster.NewGray(16, 32)); err == nil {
		t.Fatal("expected size-mismatch error")
	}
	if _, err := SSIM(raster.NewGray(4, 4), raster.NewGray(4, 4)); err == nil {
		t.Fatal("expected too-small error")
	}
}

func TestSSIMRGBIdentity(t *testing.T) {
	rng := noise.NewRNG(11, 1)
	img := raster.NewRGB(24, 24)
	for i := range img.Pix {
		img.Pix[i] = uint8(rng.Intn(256))
	}
	s, err := SSIMRGB(img, img)
	if err != nil {
		t.Fatalf("ssim: %v", err)
	}
	if math.Abs(s-1) > 1e-9 {
		t.Fatalf("SSIMRGB(x,x) = %f", s)
	}
}

// TestPixelAccuracyProperty: accuracy equals direct agreement count.
func TestPixelAccuracyProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := noise.NewRNG(seed, 3)
		a := raster.NewLabels(8, 8)
		b := raster.NewLabels(8, 8)
		agree := 0
		for i := range a.Pix {
			a.Pix[i] = raster.Class(rng.Intn(3))
			b.Pix[i] = raster.Class(rng.Intn(3))
			if a.Pix[i] == b.Pix[i] {
				agree++
			}
		}
		acc, err := PixelAccuracy(a, b)
		if err != nil {
			return false
		}
		return math.Abs(acc-float64(agree)/64) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestCorruptClassRejected: a corrupt class byte (out of matrix range)
// must surface as a *ClassRangeError, not an index panic, and must leave
// the matrix untouched. Runs under the CI chaos-smoke `-run Corrupt` pass
// with the rest of the silent-corruption defenses.
func TestCorruptClassRejected(t *testing.T) {
	c := NewConfusion(int(raster.NumClasses))
	var rangeErr *ClassRangeError

	if err := c.Add(raster.Class(7), raster.ClassWater); err == nil {
		t.Fatal("corrupt true-class byte accepted")
	} else if !errors.As(err, &rangeErr) {
		t.Fatalf("want *ClassRangeError, got %T: %v", err, err)
	} else if int(rangeErr.Class) != 7 || rangeErr.N != int(raster.NumClasses) {
		t.Fatalf("error carries %d/%d, want 7/%d", rangeErr.Class, rangeErr.N, raster.NumClasses)
	}
	if err := c.Add(raster.ClassWater, raster.Class(255)); err == nil {
		t.Fatal("corrupt predicted-class byte accepted")
	}
	if c.Total() != 0 {
		t.Fatalf("rejected observations still counted: total %d", c.Total())
	}

	// Same defense on the bulk path: one flipped pixel byte in a label map.
	truth := raster.NewLabels(8, 8)
	pred := raster.NewLabels(8, 8)
	pred.Pix[13] = raster.Class(0xEE)
	if err := c.AddLabels(truth, pred); err == nil {
		t.Fatal("corrupt label map accepted")
	} else if !errors.As(err, &rangeErr) {
		t.Fatalf("want *ClassRangeError, got %T: %v", err, err)
	}
	truth.Pix[2] = raster.Class(0x99)
	pred.Pix[13] = raster.ClassWater
	if err := c.AddLabels(truth, pred); err == nil {
		t.Fatal("corrupt truth map accepted")
	}

	// PixelAccuracy rides AddLabels and must propagate the verdict.
	if _, err := PixelAccuracy(truth, pred); err == nil {
		t.Fatal("PixelAccuracy accepted corrupt map")
	}

	// In-range observations still accumulate afterwards.
	if err := c.Add(raster.ClassThinIce, raster.ClassThinIce); err != nil {
		t.Fatalf("valid observation rejected: %v", err)
	}
}
