// Package imgproc is the workflow's classical image-processing toolkit —
// a from-scratch Go replacement for the OpenCV operations the paper's
// thin-cloud/shadow filter and color segmentation depend on: box, Gaussian
// and median smoothing, absolute difference, mask application, min-max
// normalization, binary/truncated/Otsu thresholding, and binary
// morphology. All operators use OpenCV conventions (8-bit data, masks with
// 0/255 values, border replication for neighborhoods).
//
// Every operator is a deterministic pure function of its input rasters
// and parameters (no RNG, no global state), so compositions like the
// cloud filter are bit-reproducible and safe to run concurrently on
// different images — the property the pipeline's parallel label stage
// relies on.
package imgproc

import (
	"fmt"
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

// BoxBlur smooths with a (2r+1)×(2r+1) mean filter using a separable
// two-pass running sum, O(1) per pixel regardless of radius.
func BoxBlur(src *raster.Gray, radius int) *raster.Gray {
	if radius <= 0 {
		return src.Clone()
	}
	w, h := src.W, src.H
	tmp := make([]float64, w*h)
	dst := raster.NewGray(w, h)
	win := float64(2*radius + 1)

	// horizontal pass
	for y := 0; y < h; y++ {
		row := src.Pix[y*w : (y+1)*w]
		sum := 0.0
		for k := -radius; k <= radius; k++ {
			sum += float64(row[clampIdx(k, w)])
		}
		for x := 0; x < w; x++ {
			tmp[y*w+x] = sum
			sum -= float64(row[clampIdx(x-radius, w)])
			sum += float64(row[clampIdx(x+radius+1, w)])
		}
	}
	// vertical pass
	for x := 0; x < w; x++ {
		sum := 0.0
		for k := -radius; k <= radius; k++ {
			sum += tmp[clampIdx(k, h)*w+x]
		}
		for y := 0; y < h; y++ {
			dst.Pix[y*w+x] = clampU8(sum / (win * win))
			sum -= tmp[clampIdx(y-radius, h)*w+x]
			sum += tmp[clampIdx(y+radius+1, h)*w+x]
		}
	}
	return dst
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

// GaussianBlur smooths with a separable Gaussian of the given sigma.
func GaussianBlur(src *raster.Gray, sigma float64) *raster.Gray {
	k := GaussianKernel(sigma)
	radius := len(k) / 2
	if radius == 0 {
		return src.Clone()
	}
	w, h := src.W, src.H
	tmp := make([]float64, w*h)
	dst := raster.NewGray(w, h)

	for y := 0; y < h; y++ {
		row := src.Pix[y*w : (y+1)*w]
		for x := 0; x < w; x++ {
			sum := 0.0
			for i, kv := range k {
				sum += kv * float64(row[clampIdx(x+i-radius, w)])
			}
			tmp[y*w+x] = sum
		}
	}
	for x := 0; x < w; x++ {
		for y := 0; y < h; y++ {
			sum := 0.0
			for i, kv := range k {
				sum += kv * tmp[clampIdx(y+i-radius, h)*w+x]
			}
			dst.Pix[y*w+x] = clampU8(sum)
		}
	}
	return dst
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

// AbsDiff computes |a-b| per pixel. The rasters must be the same size.
func AbsDiff(a, b *raster.Gray) (*raster.Gray, error) {
	if a.W != b.W || a.H != b.H {
		return nil, fmt.Errorf("imgproc: AbsDiff size mismatch %dx%d vs %dx%d", a.W, a.H, b.W, b.H)
	}
	out := raster.NewGray(a.W, a.H)
	for i := range a.Pix {
		d := int(a.Pix[i]) - int(b.Pix[i])
		if d < 0 {
			d = -d
		}
		out.Pix[i] = uint8(d)
	}
	return out, nil
}

// BoxMeanFloat computes the per-pixel mean of a float raster over a
// (2r+1)² window clipped at the borders, via integral images.
func BoxMeanFloat(src *raster.Float, radius int) *raster.Float {
	if radius <= 0 {
		return src.Clone()
	}
	w, h := src.W, src.H
	integ := make([]float64, (w+1)*(h+1))
	for y := 0; y < h; y++ {
		rowSum := 0.0
		for x := 0; x < w; x++ {
			rowSum += src.Pix[y*w+x]
			integ[(y+1)*(w+1)+(x+1)] = integ[y*(w+1)+(x+1)] + rowSum
		}
	}
	out := raster.NewFloat(w, h)
	for y := 0; y < h; y++ {
		y0, y1 := clampIdx(y-radius, h), clampIdx(y+radius, h)
		for x := 0; x < w; x++ {
			x0, x1 := clampIdx(x-radius, w), clampIdx(x+radius, w)
			n := float64((x1 - x0 + 1) * (y1 - y0 + 1))
			s := integ[(y1+1)*(w+1)+(x1+1)] - integ[y0*(w+1)+(x1+1)] - integ[(y1+1)*(w+1)+x0] + integ[y0*(w+1)+x0]
			out.Pix[y*w+x] = s / n
		}
	}
	return out
}

// LocalVariance computes the per-pixel variance over a (2r+1)² window,
// returned as a float raster. Thin clouds are locally smooth (low
// variance) while sea-ice texture is rough; the cloud detector uses this
// contrast.
func LocalVariance(src *raster.Gray, radius int) *raster.Float {
	w, h := src.W, src.H
	// Compute E[x] and E[x²] with float accumulation via integral images.
	integ := make([]float64, (w+1)*(h+1))
	integSq := make([]float64, (w+1)*(h+1))
	for y := 0; y < h; y++ {
		rowSum := 0.0
		rowSumSq := 0.0
		for x := 0; x < w; x++ {
			v := float64(src.Pix[y*w+x])
			rowSum += v
			rowSumSq += v * v
			integ[(y+1)*(w+1)+(x+1)] = integ[y*(w+1)+(x+1)] + rowSum
			integSq[(y+1)*(w+1)+(x+1)] = integSq[y*(w+1)+(x+1)] + rowSumSq
		}
	}
	rectSum := func(tab []float64, x0, y0, x1, y1 int) float64 { // inclusive box
		return tab[(y1+1)*(w+1)+(x1+1)] - tab[y0*(w+1)+(x1+1)] - tab[(y1+1)*(w+1)+x0] + tab[y0*(w+1)+x0]
	}
	out := raster.NewFloat(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			x0, x1 := clampIdx(x-radius, w), clampIdx(x+radius, w)
			y0, y1 := clampIdx(y-radius, h), clampIdx(y+radius, h)
			n := float64((x1 - x0 + 1) * (y1 - y0 + 1))
			s := rectSum(integ, x0, y0, x1, y1)
			s2 := rectSum(integSq, x0, y0, x1, y1)
			m := s / n
			out.Pix[y*w+x] = s2/n - m*m
		}
	}
	return out
}
