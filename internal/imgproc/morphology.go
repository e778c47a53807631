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
// with window 2r+1 using the monotone deque algorithm.
func slideExtreme(src *raster.Gray, radius int, horizontal, max bool) *raster.Gray {
	w, h := src.W, src.H
	dst := raster.NewGray(w, h)

	better := func(a, b uint8) bool {
		if max {
			return a >= b
		}
		return a <= b
	}

	process := func(get func(i int) uint8, set func(i int, v uint8), n int) {
		// deque of indices with monotone values
		deque := make([]int, 0, n)
		for i := 0; i < n+radius; i++ {
			if i < n {
				v := get(i)
				for len(deque) > 0 && better(v, get(deque[len(deque)-1])) {
					deque = deque[:len(deque)-1]
				}
				deque = append(deque, i)
			}
			out := i - radius
			if out >= 0 {
				for len(deque) > 0 && deque[0] < out-radius {
					deque = deque[1:]
				}
				set(out, get(deque[0]))
			}
		}
	}

	if horizontal {
		for y := 0; y < h; y++ {
			row := src.Pix[y*w : (y+1)*w]
			out := dst.Pix[y*w : (y+1)*w]
			process(func(i int) uint8 { return row[i] }, func(i int, v uint8) { out[i] = v }, w)
		}
	} else {
		for x := 0; x < w; x++ {
			process(func(i int) uint8 { return src.Pix[i*w+x] }, func(i int, v uint8) { dst.Pix[i*w+x] = v }, h)
		}
	}
	return dst
}
