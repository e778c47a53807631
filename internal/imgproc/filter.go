// Package imgproc is the workflow's classical image-processing toolkit —
// a from-scratch Go replacement for the OpenCV operations the paper's
// thin-cloud/shadow filter and color segmentation depend on: median
// smoothing, the Gaussian kernel, binary/truncated/Otsu thresholding,
// mask statistics, and binary morphology. All operators use OpenCV
// conventions (8-bit data, masks with 0/255 values, border replication
// for neighborhoods).
//
// Every operator is a deterministic function of its input rasters and
// parameters (no RNG, no global state) that writes only its output, so
// compositions like the cloud filter are bit-reproducible and safe to run
// concurrently on different images — the property the pipeline's
// parallel label stage relies on. Products that feed a sum are rounded
// explicitly (float64(a*b)), so no target fuses them into a multiply-add
// (scripts/nofma.sh checks this on arm64).
package imgproc

import (
	"math"

	"seaice/internal/raster"
)

// clampIdx clamps a coordinate to [0, n) — border replication.
func clampIdx(i, n int) int {
	if i < 0 {
		return 0
	}
	if i >= n {
		return n - 1
	}
	return i
}

// GaussianKernel returns a normalized 1-D Gaussian kernel with the given
// standard deviation; the radius follows OpenCV's rule of 3σ rounded up.
func GaussianKernel(sigma float64) []float64 {
	if sigma <= 0 {
		return []float64{1}
	}
	radius := int(math.Ceil(3 * sigma))
	k := make([]float64, 2*radius+1)
	sum := 0.0
	for i := range k {
		d := float64(i - radius)
		k[i] = math.Exp(-d * d / (2 * sigma * sigma))
		sum += k[i]
	}
	for i := range k {
		k[i] /= sum
	}
	return k
}

// MedianFilter applies a (2r+1)×(2r+1) median using a 256-bin histogram
// slide per row, the standard constant-time-per-update approach for 8-bit
// data.
func MedianFilter(src *raster.Gray, radius int) *raster.Gray {
	if radius <= 0 {
		return src.Clone()
	}
	w, h := src.W, src.H
	dst := raster.NewGray(w, h)
	win := (2*radius + 1) * (2*radius + 1)
	half := win / 2

	var hist [256]int
	for y := 0; y < h; y++ {
		// build histogram for x=0 window
		for i := range hist {
			hist[i] = 0
		}
		for dy := -radius; dy <= radius; dy++ {
			sy := clampIdx(y+dy, h)
			for dx := -radius; dx <= radius; dx++ {
				hist[src.Pix[sy*w+clampIdx(dx, w)]]++
			}
		}
		for x := 0; x < w; x++ {
			// find median
			cnt := 0
			med := 0
			for v := 0; v < 256; v++ {
				cnt += hist[v]
				if cnt > half {
					med = v
					break
				}
			}
			dst.Pix[y*w+x] = uint8(med)
			// slide window right
			if x+1 < w {
				outX := clampIdx(x-radius, w)
				inX := clampIdx(x+radius+1, w)
				for dy := -radius; dy <= radius; dy++ {
					sy := clampIdx(y+dy, h)
					hist[src.Pix[sy*w+outX]]--
					hist[src.Pix[sy*w+inX]]++
				}
			}
		}
	}
	return dst
}
