package imgproc

import "seaice/internal/raster"

// Dilate grows foreground (nonzero) regions of a binary mask by a square
// structuring element of the given radius. Implemented as separable
// running-max passes, O(1) per pixel amortized via the two-stack max
// queue technique reduced to 8-bit scans.
func Dilate(src *raster.Gray, radius int) *raster.Gray {
	if radius <= 0 {
		return src.Clone()
	}
	tmp := slideExtreme(src, radius, true, true)
	return slideExtreme(tmp, radius, false, true)
}

// Erode shrinks foreground regions by a square structuring element.
func Erode(src *raster.Gray, radius int) *raster.Gray {
	if radius <= 0 {
		return src.Clone()
	}
	tmp := slideExtreme(src, radius, true, false)
	return slideExtreme(tmp, radius, false, false)
}

// slideExtreme computes the 1-D sliding max (or min) over rows or columns
// with window 2r+1 using the monotone deque algorithm. A line (row or
// column) is n pixels at Pix[off+i*stride]; one deque serves every line,
// since each index enters it at most once per line.
func slideExtreme(src *raster.Gray, radius int, horizontal, max bool) *raster.Gray {
	dst := raster.NewGray(src.W, src.H)
	n, lines, stride, next := src.W, src.H, 1, src.W
	if !horizontal {
		n, lines, stride, next = src.H, src.W, src.W, 1
	}
	deque := make([]int, n) // indices with monotone values, live in [head, tail)
	for l, off := 0, 0; l < lines; l, off = l+1, off+next {
		head, tail := 0, 0
		for i := 0; i < n+radius; i++ {
			if i < n {
				v := src.Pix[off+i*stride]
				for tail > head && better(max, v, src.Pix[off+deque[tail-1]*stride]) {
					tail--
				}
				deque[tail] = i
				tail++
			}
			out := i - radius
			if out >= 0 {
				for tail > head && deque[head] < out-radius {
					head++
				}
				dst.Pix[off+out*stride] = src.Pix[off+deque[head]*stride]
			}
		}
	}
	return dst
}

// better reports whether a displaces b from the back of a max (or min)
// deque.
func better(max bool, a, b uint8) bool {
	if max {
		return a >= b
	}
	return a <= b
}
