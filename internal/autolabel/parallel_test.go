package autolabel

import (
	"testing"

	"seaice/internal/colorspace"
	"seaice/internal/noise"
	"seaice/internal/pool"
	"seaice/internal/raster"
)

// testImage builds a deterministic image covering all three value bands
// with sizes that do not divide evenly into stripes.
func testImage(w, h int, seed uint64) *raster.RGB {
	rng := noise.NewRNG(seed, 0xa07)
	img := raster.NewRGB(w, h)
	for i := range img.Pix {
		img.Pix[i] = uint8(rng.Intn(256))
	}
	return img
}

// segmentSerialReference is the pre-stripe implementation: full-image HSV
// conversion followed by three whole-image InRange passes.
func segmentSerialReference(img *raster.RGB, t Thresholds) Masks {
	hsv := colorspace.ToHSV(img)
	return Masks{
		ThickIce: colorspace.InRange(hsv, t.ThickIce),
		ThinIce:  colorspace.InRange(hsv, t.ThinIce),
		Water:    colorspace.InRange(hsv, t.Water),
	}
}

// TestSegmentByteIdenticalAcrossWorkers: striped segment must reproduce
// the serial reference masks byte-for-byte at every pool size.
func TestSegmentByteIdenticalAcrossWorkers(t *testing.T) {
	defer pool.SetSharedWorkers(0)
	th := PaperThresholds()
	for _, dim := range []struct{ w, h int }{{1, 1}, {64, 64}, {100, 37}, {257, 129}} {
		img := testImage(dim.w, dim.h, uint64(dim.w*1000+dim.h))
		pool.SetSharedWorkers(1)
		want := segmentSerialReference(img, th)
		for _, workers := range []int{1, 3, 8} {
			pool.SetSharedWorkers(workers)
			got := segment(img, th)
			for i := range want.ThickIce.Pix {
				if got.ThickIce.Pix[i] != want.ThickIce.Pix[i] ||
					got.ThinIce.Pix[i] != want.ThinIce.Pix[i] ||
					got.Water.Pix[i] != want.Water.Pix[i] {
					t.Fatalf("%dx%d workers=%d: mask mismatch at pixel %d", dim.w, dim.h, workers, i)
				}
			}
		}
	}
}

// TestLabelMatchesMergeSegment: the fused striped Label must equal
// merge(segment(img)) byte-for-byte at every pool size.
func TestLabelMatchesMergeSegment(t *testing.T) {
	defer pool.SetSharedWorkers(0)
	th := PaperThresholds()
	for _, dim := range []struct{ w, h int }{{1, 1}, {64, 64}, {100, 37}, {257, 129}} {
		img := testImage(dim.w, dim.h, uint64(dim.w*31+dim.h))
		want, err := merge(segmentSerialReference(img, th))
		if err != nil {
			t.Fatalf("merge: %v", err)
		}
		for _, workers := range []int{1, 3, 8} {
			pool.SetSharedWorkers(workers)
			got, err := Label(img, th)
			if err != nil {
				t.Fatalf("label: %v", err)
			}
			for i := range want.Pix {
				if got.Pix[i] != want.Pix[i] {
					t.Fatalf("%dx%d workers=%d: label mismatch at pixel %d: %d vs %d",
						dim.w, dim.h, workers, i, got.Pix[i], want.Pix[i])
				}
			}
		}
	}
}
