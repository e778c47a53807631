//go:build amd64

// AVX2 F(4×4,3×3) Winograd input transform: the avx2 float32 backend's
// FloatOps.WinoIn4. The kernel in wino_amd64.s applies the 1-D stencil
// twice (columns, then rows), six loop iterations per pass, purely
// elementwise across the eight lanes — lane l is tile l of the group — in
// the scalar expressions' order with every product and sum rounded on its
// own, so the results are bit-identical to internal/nn's bt4Row.

package tensor

// winoIn4AVX2 transforms the eight windows in d (overwritten) into 36
// eight-float stores stride bytes apart from v; see wino_amd64.s.
//
//go:noescape
func winoIn4AVX2(v *float32, stride int, d *float32)

func winoIn4Lanes8(v []float32, stride int, d *[WinoLanes * 36]float32) {
	// The assembly does no bounds checks: touch the last element it writes.
	_ = v[35*stride+WinoLanes-1]
	winoIn4AVX2(&v[0], stride*4, &d[0])
}
