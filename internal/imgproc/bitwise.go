package imgproc

import (
	"fmt"

	"seaice/internal/raster"
)

// ApplyMask keeps src where mask is nonzero and zeroes it elsewhere
// (OpenCV bitwise_and(src, src, mask=mask)).
func ApplyMask(src, mask *raster.Gray) (*raster.Gray, error) {
	if src.W != mask.W || src.H != mask.H {
		return nil, fmt.Errorf("imgproc: ApplyMask size mismatch %dx%d vs %dx%d", src.W, src.H, mask.W, mask.H)
	}
	out := raster.NewGray(src.W, src.H)
	for i := range src.Pix {
		if mask.Pix[i] != 0 {
			out.Pix[i] = src.Pix[i]
		}
	}
	return out, nil
}

// AddWeighted blends two rasters: alpha*a + beta*b + gamma, saturating to
// [0,255] (OpenCV addWeighted); used to recombine the de-hazed value
// channel with the original.
func AddWeighted(a *raster.Gray, alpha float64, b *raster.Gray, beta, gamma float64) (*raster.Gray, error) {
	if a.W != b.W || a.H != b.H {
		return nil, fmt.Errorf("imgproc: AddWeighted size mismatch %dx%d vs %dx%d", a.W, a.H, b.W, b.H)
	}
	out := raster.NewGray(a.W, a.H)
	for i := range a.Pix {
		out.Pix[i] = clampU8(alpha*float64(a.Pix[i]) + beta*float64(b.Pix[i]) + gamma)
	}
	return out, nil
}

// Subtract computes saturating a-b (OpenCV subtract).
func Subtract(a, b *raster.Gray) (*raster.Gray, error) {
	if a.W != b.W || a.H != b.H {
		return nil, fmt.Errorf("imgproc: Subtract size mismatch %dx%d vs %dx%d", a.W, a.H, b.W, b.H)
	}
	out := raster.NewGray(a.W, a.H)
	for i := range a.Pix {
		d := int(a.Pix[i]) - int(b.Pix[i])
		if d < 0 {
			d = 0
		}
		out.Pix[i] = uint8(d)
	}
	return out, nil
}

// CountNonZero returns the number of nonzero pixels, used for mask
// coverage statistics such as the cloud-fraction bucketing in Table V.
func CountNonZero(a *raster.Gray) int {
	n := 0
	for _, v := range a.Pix {
		if v != 0 {
			n++
		}
	}
	return n
}
