package imgproc

import "seaice/internal/raster"

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
