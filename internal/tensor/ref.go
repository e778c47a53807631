package tensor

import "fmt"

// This file preserves the original serial kernels exactly as they shipped
// before the parallel training engine. They are the reference semantics the
// engine kernels are property-tested against bit-for-bit: tensor's own
// tests and nn's im2col/GEMM convolution reference call them, and no
// non-test code does. Keep them boring: no blocking, no unrolling, no
// parallelism.

// MatMulRef is the pre-engine serial C = A×B (ikj loop order).
func MatMulRef[S Scalar](a, b *Tensor[S]) *Tensor[S] {
	if len(a.Shape) != 2 || len(b.Shape) != 2 || a.Shape[1] != b.Shape[0] {
		panic(fmt.Sprintf("tensor: matmul shape mismatch %v × %v", a.Shape, b.Shape))
	}
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[1]
	c := New[S](m, n)
	for i := 0; i < m; i++ {
		arow := a.Data[i*k : (i+1)*k]
		crow := c.Data[i*n : (i+1)*n]
		for kk := 0; kk < k; kk++ {
			av := arow[kk]
			if av == 0 {
				continue
			}
			brow := b.Data[kk*n : (kk+1)*n]
			for j := range brow {
				crow[j] += av * brow[j]
			}
		}
	}
	return c
}

// MatMulATBRef is the pre-engine serial C = Aᵀ×B.
func MatMulATBRef[S Scalar](a, b *Tensor[S]) *Tensor[S] {
	if len(a.Shape) != 2 || len(b.Shape) != 2 || a.Shape[0] != b.Shape[0] {
		panic(fmt.Sprintf("tensor: matmulATB shape mismatch %v × %v", a.Shape, b.Shape))
	}
	k, m, n := a.Shape[0], a.Shape[1], b.Shape[1]
	c := New[S](m, n)
	for kk := 0; kk < k; kk++ {
		arow := a.Data[kk*m : (kk+1)*m]
		brow := b.Data[kk*n : (kk+1)*n]
		for i, av := range arow {
			if av == 0 {
				continue
			}
			crow := c.Data[i*n : (i+1)*n]
			for j := range brow {
				crow[j] += av * brow[j]
			}
		}
	}
	return c
}

// MatMulABTRef is the pre-engine serial C = A×Bᵀ.
func MatMulABTRef[S Scalar](a, b *Tensor[S]) *Tensor[S] {
	if len(a.Shape) != 2 || len(b.Shape) != 2 || a.Shape[1] != b.Shape[1] {
		panic(fmt.Sprintf("tensor: matmulABT shape mismatch %v × %v", a.Shape, b.Shape))
	}
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[0]
	c := New[S](m, n)
	for i := 0; i < m; i++ {
		arow := a.Data[i*k : (i+1)*k]
		crow := c.Data[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			brow := b.Data[j*k : (j+1)*k]
			var sum S
			for kk := range arow {
				sum += arow[kk] * brow[kk]
			}
			crow[j] = sum
		}
	}
	return c
}

// Im2ColRef is the pre-engine serial unfold.
func Im2ColRef[S Scalar](x *Tensor[S], kh, kw, stride, pad int) *Tensor[S] {
	if len(x.Shape) != 4 {
		panic(fmt.Sprintf("tensor: Im2Col needs NCHW input, got %v", x.Shape))
	}
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oh := (h+2*pad-kh)/stride + 1
	ow := (w+2*pad-kw)/stride + 1
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("tensor: Im2Col output empty for input %v kernel %dx%d", x.Shape, kh, kw))
	}
	cols := New[S](c*kh*kw, n*oh*ow)
	colW := n * oh * ow

	for ch := 0; ch < c; ch++ {
		for ky := 0; ky < kh; ky++ {
			for kx := 0; kx < kw; kx++ {
				row := ((ch*kh+ky)*kw + kx) * colW
				for img := 0; img < n; img++ {
					src := ((img*c + ch) * h) * w
					dst := row + img*oh*ow
					for oy := 0; oy < oh; oy++ {
						iy := oy*stride + ky - pad
						if iy < 0 || iy >= h {
							continue // stays zero
						}
						srow := src + iy*w
						drow := dst + oy*ow
						for ox := 0; ox < ow; ox++ {
							ix := ox*stride + kx - pad
							if ix < 0 || ix >= w {
								continue
							}
							cols.Data[drow+ox] = x.Data[srow+ix]
						}
					}
				}
			}
		}
	}
	return cols
}

// Col2ImRef is the pre-engine serial fold.
func Col2ImRef[S Scalar](cols *Tensor[S], n, c, h, w, kh, kw, stride, pad int) *Tensor[S] {
	oh := (h+2*pad-kh)/stride + 1
	ow := (w+2*pad-kw)/stride + 1
	if cols.Shape[0] != c*kh*kw || cols.Shape[1] != n*oh*ow {
		panic(fmt.Sprintf("tensor: Col2Im shape %v does not match target %dx%dx%dx%d k%dx%d", cols.Shape, n, c, h, w, kh, kw))
	}
	x := New[S](n, c, h, w)
	colW := n * oh * ow

	for ch := 0; ch < c; ch++ {
		for ky := 0; ky < kh; ky++ {
			for kx := 0; kx < kw; kx++ {
				row := ((ch*kh+ky)*kw + kx) * colW
				for img := 0; img < n; img++ {
					dst := ((img*c + ch) * h) * w
					src := row + img*oh*ow
					for oy := 0; oy < oh; oy++ {
						iy := oy*stride + ky - pad
						if iy < 0 || iy >= h {
							continue
						}
						drow := dst + iy*w
						srow := src + oy*ow
						for ox := 0; ox < ow; ox++ {
							ix := ox*stride + kx - pad
							if ix < 0 || ix >= w {
								continue
							}
							x.Data[drow+ix] += cols.Data[srow+ox]
						}
					}
				}
			}
		}
	}
	return x
}
