package imgproc

import (
	"testing"
	"testing/quick"

	"seaice/internal/noise"
	"seaice/internal/raster"
)

// bruteExtreme computes dilate/erode by direct window scan.
func bruteExtreme(src *raster.Gray, radius int, max bool) *raster.Gray {
	dst := raster.NewGray(src.W, src.H)
	for y := 0; y < src.H; y++ {
		for x := 0; x < src.W; x++ {
			var best uint8
			if !max {
				best = 255
			}
			for dy := -radius; dy <= radius; dy++ {
				yy := y + dy
				if yy < 0 || yy >= src.H {
					continue
				}
				for dx := -radius; dx <= radius; dx++ {
					xx := x + dx
					if xx < 0 || xx >= src.W {
						continue
					}
					v := src.At(xx, yy)
					if max && v > best || !max && v < best {
						best = v
					}
				}
			}
			dst.Set(x, y, best)
		}
	}
	return dst
}

func randGray(seed uint64, w, h int) *raster.Gray {
	rng := noise.NewRNG(seed, 1)
	g := raster.NewGray(w, h)
	for i := range g.Pix {
		g.Pix[i] = uint8(rng.Intn(256))
	}
	return g
}

func TestDilateMatchesBruteForce(t *testing.T) {
	for _, radius := range []int{1, 2, 3, 7} {
		g := randGray(uint64(radius), 37, 23)
		got := Dilate(g, radius)
		want := bruteExtreme(g, radius, true)
		for i := range want.Pix {
			if got.Pix[i] != want.Pix[i] {
				t.Fatalf("radius %d: dilate mismatch at %d: got %d want %d", radius, i, got.Pix[i], want.Pix[i])
			}
		}
	}
}

func TestErodeMatchesBruteForce(t *testing.T) {
	for _, radius := range []int{1, 2, 3, 7} {
		g := randGray(uint64(radius)+100, 31, 29)
		got := Erode(g, radius)
		want := bruteExtreme(g, radius, false)
		for i := range want.Pix {
			if got.Pix[i] != want.Pix[i] {
				t.Fatalf("radius %d: erode mismatch at %d: got %d want %d", radius, i, got.Pix[i], want.Pix[i])
			}
		}
	}
}

// TestErodeDilateOrdering: erosion never exceeds the source, dilation
// never falls below it, and opening ≤ source ≤ closing pointwise.
func TestErodeDilateOrdering(t *testing.T) {
	f := func(seed uint64) bool {
		g := randGray(seed, 24, 18)
		er := Erode(g, 2)
		di := Dilate(g, 2)
		op := Dilate(er, 2) // opening
		cl := Erode(di, 2)  // closing
		for i := range g.Pix {
			if er.Pix[i] > g.Pix[i] || di.Pix[i] < g.Pix[i] {
				return false
			}
			if op.Pix[i] > g.Pix[i] || cl.Pix[i] < g.Pix[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
