package imgproc

import (
	"fmt"

	"seaice/internal/raster"
)

// ThresholdKind selects the thresholding rule, mirroring OpenCV's
// cv2.threshold type constants the paper's filter uses.
type ThresholdKind int

const (
	// ThreshBinary maps v > t to maxval and everything else to 0.
	ThreshBinary ThresholdKind = iota
	// ThreshBinaryInv maps v > t to 0 and everything else to maxval.
	ThreshBinaryInv
	// ThreshTrunc caps values above t at t and keeps the rest.
	ThreshTrunc
	// ThreshToZero zeroes values ≤ t and keeps the rest.
	ThreshToZero
	// ThreshToZeroInv keeps values ≤ t and zeroes the rest.
	ThreshToZeroInv
)

// String names the threshold kind for diagnostics.
func (k ThresholdKind) String() string {
	switch k {
	case ThreshBinary:
		return "binary"
	case ThreshBinaryInv:
		return "binary-inv"
	case ThreshTrunc:
		return "trunc"
	case ThreshToZero:
		return "tozero"
	case ThreshToZeroInv:
		return "tozero-inv"
	}
	return fmt.Sprintf("threshold(%d)", int(k))
}

// Threshold applies the selected rule with threshold t and maximum value
// maxval (used by the binary kinds) to src, writing every pixel of dst,
// which must match src's dimensions and may be src itself.
func Threshold(dst, src *raster.Gray, t, maxval uint8, kind ThresholdKind) {
	for i, v := range src.Pix {
		var out uint8
		switch kind {
		case ThreshBinary:
			if v > t {
				out = maxval
			}
		case ThreshBinaryInv:
			if v <= t {
				out = maxval
			}
		case ThreshTrunc:
			out = v
			if v > t {
				out = t
			}
		case ThreshToZero:
			if v > t {
				out = v
			}
		case ThreshToZeroInv:
			if v <= t {
				out = v
			}
		}
		dst.Pix[i] = out
	}
}

// histogram returns the 256-bin intensity histogram.
func histogram(src *raster.Gray) [256]int {
	var h [256]int
	for _, v := range src.Pix {
		h[v]++
	}
	return h
}

// OtsuThreshold computes Otsu's optimal global threshold: the level that
// maximizes between-class variance of the bimodal intensity histogram.
// The returned threshold lies within the histogram's occupied range.
func OtsuThreshold(src *raster.Gray) uint8 {
	hist := histogram(src)
	total := len(src.Pix)
	if total == 0 {
		return 0
	}

	var sum float64
	for v := 0; v < 256; v++ {
		sum += float64(float64(v) * float64(hist[v]))
	}

	var sumB, wB float64
	best := 0.0
	threshold := 0
	for v := 0; v < 256; v++ {
		wB += float64(hist[v])
		if wB == 0 {
			continue
		}
		wF := float64(total) - wB
		if wF == 0 {
			break
		}
		sumB += float64(float64(v) * float64(hist[v]))
		mB := sumB / wB
		mF := (sum - sumB) / wF
		between := wB * wF * (mB - mF) * (mB - mF)
		if between > best {
			best = between
			threshold = v
		}
	}
	return uint8(threshold)
}
