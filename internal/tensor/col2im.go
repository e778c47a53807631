package tensor

import (
	"fmt"

	"seaice/internal/pool"
)

// convOut returns the output spatial size of a convolution.
func convOut(h, kh, stride, pad int) int { return (h+2*pad-kh)/stride + 1 }

// validRange returns the [lo, hi] output positions whose input index
// o·stride + k − pad lands inside [0, size); hi < lo means none do. The
// per-pixel padding guards of the naive loops become loop bounds, keeping
// the inner loops branch-free.
func validRange(size, k, stride, pad, outSize int) (lo, hi int) {
	lo = 0
	if d := pad - k; d > 0 {
		lo = (d + stride - 1) / stride
	}
	top := size - 1 + pad - k
	if top < 0 {
		return 0, -1
	}
	hi = top / stride
	if hi > outSize-1 {
		hi = outSize - 1
	}
	return lo, hi
}

// Col2Im folds a column matrix back into an (N,C,H,W) tensor, summing
// overlapping contributions — the adjoint of the im2col unfold (Im2ColRef),
// used by convolution backward passes to accumulate input gradients.
func Col2Im[S Scalar](cols *Tensor[S], n, c, h, w, kh, kw, stride, pad int) *Tensor[S] {
	x := New[S](n, c, h, w)
	Col2ImInto(x, cols, kh, kw, stride, pad)
	return x
}

// Col2ImInto folds cols into dst, which must be pre-shaped (N,C,H,W) and
// is fully overwritten. Channels write disjoint planes, so the fold is
// parallelized per channel; within a channel the accumulation order is the
// serial reference's (ky, kx, image, row ascending), keeping results
// bit-identical at any worker count.
func Col2ImInto[S Scalar](dst, cols *Tensor[S], kh, kw, stride, pad int) {
	if len(dst.Shape) != 4 {
		panic(fmt.Sprintf("tensor: Col2Im needs NCHW dst, got %v", dst.Shape))
	}
	n, c, h, w := dst.Shape[0], dst.Shape[1], dst.Shape[2], dst.Shape[3]
	oh := convOut(h, kh, stride, pad)
	ow := convOut(w, kw, stride, pad)
	if cols.Shape[0] != c*kh*kw || cols.Shape[1] != n*oh*ow {
		panic(fmt.Sprintf("tensor: Col2Im shape %v does not match target %dx%dx%dx%d k%dx%d", cols.Shape, n, c, h, w, kh, kw))
	}
	p := pool.Shared()
	if p.Workers() == 1 {
		col2ImChannels(dst.Data, cols.Data, n, c, h, w, kh, kw, stride, pad, oh, ow, 0, c)
		return
	}
	p.MustMapRanges(c, 1, func(lo, hi int) {
		col2ImChannels(dst.Data, cols.Data, n, c, h, w, kh, kw, stride, pad, oh, ow, lo, hi)
	})
}

// col2ImChannels folds the rows belonging to channels [lo,hi).
func col2ImChannels[S Scalar](x, cols []S, n, c, h, w, kh, kw, stride, pad, oh, ow, lo, hi int) {
	colW := n * oh * ow
	for ch := lo; ch < hi; ch++ {
		for img := 0; img < n; img++ {
			plane := x[((img*c+ch)*h)*w : ((img*c+ch)*h+h)*w]
			for i := range plane {
				plane[i] = 0
			}
		}
		for ky := 0; ky < kh; ky++ {
			for kx := 0; kx < kw; kx++ {
				row := ((ch*kh+ky)*kw + kx) * colW
				oyLo, oyHi := validRange(h, ky, stride, pad, oh)
				oxLo, oxHi := validRange(w, kx, stride, pad, ow)
				kyp, kxp := ky-pad, kx-pad
				for img := 0; img < n; img++ {
					dst := ((img*c + ch) * h) * w
					src := row + img*oh*ow
					for oy := oyLo; oy <= oyHi; oy++ {
						drow := dst + (oy*stride+kyp)*w
						srow := src + oy*ow
						if stride == 1 {
							xr := x[drow+oxLo+kxp : drow+oxHi+kxp+1]
							cr := cols[srow+oxLo : srow+oxHi+1]
							for i, v := range cr {
								xr[i] += v
							}
							continue
						}
						for ox := oxLo; ox <= oxHi; ox++ {
							x[drow+ox*stride+kxp] += cols[srow+ox]
						}
					}
				}
			}
		}
	}
}
