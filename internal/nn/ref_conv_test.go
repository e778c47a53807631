package nn

import "seaice/internal/tensor"

// The pre-engine convolution path, kept as a test-only reference: im2col
// then a serial matrix product (tensor's *Ref kernels), allocating every
// intermediate. refConv2D and refConvT implement testLayer over an engine
// layer's own Weight and Bias, so a test can step the same parameters
// through either path and compare the results.

// refConv2D runs a Conv2D's parameters through the reference im2col/GEMM
// convolution.
type refConv2D[S tensor.Scalar] struct {
	c          *Conv2D[S]
	x, cols    *tensor.Tensor[S]
	outH, outW int
}

func (r *refConv2D[S]) Name() string        { return r.c.Name() }
func (r *refConv2D[S]) Params() []*Param[S] { return r.c.Params() }

func (r *refConv2D[S]) Forward(x *tensor.Tensor[S], train bool) *tensor.Tensor[S] {
	c := r.c
	n, h, w := x.Shape[0], x.Shape[2], x.Shape[3]
	r.outH = (h+2*c.Pad-c.KH)/c.Stride + 1
	r.outW = (w+2*c.Pad-c.KW)/c.Stride + 1
	r.x = x
	r.cols = tensor.Im2ColRef(x, c.KH, c.KW, c.Stride, c.Pad)

	out := tensor.MatMulRef(c.Weight.W, r.cols) // (OutC, N·OH·OW)
	// add bias and reorder (OutC, N, OH·OW) → (N, OutC, OH, OW)
	y := tensor.New[S](n, c.OutC, r.outH, r.outW)
	plane := r.outH * r.outW
	for oc := 0; oc < c.OutC; oc++ {
		b := c.Bias.W.Data[oc]
		for img := 0; img < n; img++ {
			src := out.Data[oc*n*plane+img*plane : oc*n*plane+(img+1)*plane]
			dst := y.Data[(img*c.OutC+oc)*plane : (img*c.OutC+oc+1)*plane]
			for i, v := range src {
				dst[i] = v + b
			}
		}
	}
	return y
}

func (r *refConv2D[S]) Backward(dy *tensor.Tensor[S]) *tensor.Tensor[S] {
	c := r.c
	n, plane := r.x.Shape[0], r.outH*r.outW
	// reorder dy (N,OutC,OH,OW) → (OutC, N·OH·OW)
	dout := tensor.New[S](c.OutC, n*plane)
	for oc := 0; oc < c.OutC; oc++ {
		for img := 0; img < n; img++ {
			src := dy.Data[(img*c.OutC+oc)*plane : (img*c.OutC+oc+1)*plane]
			dst := dout.Data[oc*n*plane+img*plane : oc*n*plane+(img+1)*plane]
			copy(dst, src)
		}
	}

	// bias gradient: sum over positions
	for oc := 0; oc < c.OutC; oc++ {
		var sum S
		for _, v := range dout.Data[oc*n*plane : (oc+1)*n*plane] {
			sum += v
		}
		c.Bias.Grad.Data[oc] += sum
	}

	// weight gradient: dW = dout × colsᵀ
	dw := tensor.MatMulABTRef(dout, r.cols)
	c.Weight.Grad.AddInPlace(dw)

	// input gradient: dcols = Wᵀ × dout, then fold back
	dcols := tensor.MatMulATBRef(c.Weight.W, dout)
	return tensor.Col2ImRef(dcols, n, c.InC, r.x.Shape[2], r.x.Shape[3], c.KH, c.KW, c.Stride, c.Pad)
}

// refConvT runs a ConvTranspose2x2's parameters through the reference
// serial scatter/gather loops.
type refConvT[S tensor.Scalar] struct {
	u *ConvTranspose2x2[S]
	x *tensor.Tensor[S]
}

func (r *refConvT[S]) Name() string        { return r.u.Name() }
func (r *refConvT[S]) Params() []*Param[S] { return r.u.Params() }

func (r *refConvT[S]) Forward(x *tensor.Tensor[S], train bool) *tensor.Tensor[S] {
	u := r.u
	r.x = x
	n, h, w := x.Shape[0], x.Shape[2], x.Shape[3]
	y := tensor.New[S](n, u.OutC, 2*h, 2*w)
	for img := 0; img < n; img++ {
		for ic := 0; ic < u.InC; ic++ {
			wrow := u.Weight.W.Data[ic*u.OutC*4 : (ic+1)*u.OutC*4]
			xp := x.Data[(img*u.InC+ic)*h*w : (img*u.InC+ic+1)*h*w]
			for oc := 0; oc < u.OutC; oc++ {
				k := wrow[oc*4 : oc*4+4]
				yp := y.Data[(img*u.OutC+oc)*4*h*w : (img*u.OutC+oc+1)*4*h*w]
				for iy := 0; iy < h; iy++ {
					row0 := yp[(2*iy)*(2*w):]
					row1 := yp[(2*iy+1)*(2*w):]
					xr := xp[iy*w : (iy+1)*w]
					for ix, v := range xr {
						row0[2*ix] += v * k[0]
						row0[2*ix+1] += v * k[1]
						row1[2*ix] += v * k[2]
						row1[2*ix+1] += v * k[3]
					}
				}
			}
		}
	}
	// bias
	plane := 4 * h * w
	for img := 0; img < n; img++ {
		for oc := 0; oc < u.OutC; oc++ {
			b := u.Bias.W.Data[oc]
			yp := y.Data[(img*u.OutC+oc)*plane : (img*u.OutC+oc+1)*plane]
			for i := range yp {
				yp[i] += b
			}
		}
	}
	return y
}

func (r *refConvT[S]) Backward(dy *tensor.Tensor[S]) *tensor.Tensor[S] {
	u := r.u
	n, h, w := r.x.Shape[0], r.x.Shape[2], r.x.Shape[3]
	dx := tensor.New[S](n, u.InC, h, w)
	plane := 4 * h * w

	for img := 0; img < n; img++ {
		for oc := 0; oc < u.OutC; oc++ {
			dyp := dy.Data[(img*u.OutC+oc)*plane : (img*u.OutC+oc+1)*plane]
			var sum S
			for _, v := range dyp {
				sum += v
			}
			u.Bias.Grad.Data[oc] += sum
		}
		for ic := 0; ic < u.InC; ic++ {
			xp := r.x.Data[(img*u.InC+ic)*h*w : (img*u.InC+ic+1)*h*w]
			dxp := dx.Data[(img*u.InC+ic)*h*w : (img*u.InC+ic+1)*h*w]
			wrow := u.Weight.W.Data[ic*u.OutC*4 : (ic+1)*u.OutC*4]
			grow := u.Weight.Grad.Data[ic*u.OutC*4 : (ic+1)*u.OutC*4]
			for oc := 0; oc < u.OutC; oc++ {
				k := wrow[oc*4 : oc*4+4]
				gk := grow[oc*4 : oc*4+4]
				dyp := dy.Data[(img*u.OutC+oc)*plane : (img*u.OutC+oc+1)*plane]
				for iy := 0; iy < h; iy++ {
					row0 := dyp[(2*iy)*(2*w):]
					row1 := dyp[(2*iy+1)*(2*w):]
					xr := xp[iy*w : (iy+1)*w]
					dxr := dxp[iy*w : (iy+1)*w]
					for ix := range xr {
						g0, g1, g2, g3 := row0[2*ix], row0[2*ix+1], row1[2*ix], row1[2*ix+1]
						dxr[ix] += g0*k[0] + g1*k[1] + g2*k[2] + g3*k[3]
						v := xr[ix]
						gk[0] += v * g0
						gk[1] += v * g1
						gk[2] += v * g2
						gk[3] += v * g3
					}
				}
			}
		}
	}
	return dx
}
