//go:build amd64

// AVX2 F(4×4,3×3) Winograd transforms: the avx2 float32 backend's
// FloatOps.WinoIn4, WinoFilter4 and WinoOut4. Each kernel in wino_amd64.s
// applies its 1-D stencil twice (columns, then rows), purely elementwise
// across the eight lanes — lane l is tile (or filter) l of the group — in
// the scalar expressions' order with every product, quotient and sum
// rounded on its own and no FMA, so the results are bit-identical to
// internal/nn's bt4Row, g4Row and at4Row.

package tensor

// winoIn4AVX2 transforms the eight windows in d (overwritten) into 36
// eight-float stores stride bytes apart from v; see wino_amd64.s.
//
//go:noescape
func winoIn4AVX2(v *float32, stride int, d *float32)

// winoFilter4AVX2 transforms the eight filters in taps into 36 eight-float
// stores stride bytes apart from u; see wino_amd64.s.
//
//go:noescape
func winoFilter4AVX2(u *float32, stride int, taps *float32)

// winoOut4AVX2 transforms the 36 eight-float loads stride bytes apart
// from m into the eight 4×4 output tiles at y; see wino_amd64.s.
//
//go:noescape
func winoOut4AVX2(y, m *float32, stride int, bias float32, relu bool)

// The assembly does no bounds checks: each wrapper touches the last
// element its kernel's strided streams reach.

func winoIn4Lanes8(v []float32, stride int, d *[WinoLanes * 36]float32) {
	_ = v[35*stride+WinoLanes-1]
	winoIn4AVX2(&v[0], stride*4, &d[0])
}

func winoFilter4Lanes8(u []float32, stride int, g *[WinoLanes * 9]float32) {
	_ = u[35*stride+WinoLanes-1]
	winoFilter4AVX2(&u[0], stride*4, &g[0])
}

func winoOut4Lanes8(y *[WinoLanes * 24]float32, m []float32, stride int, bias float32, relu bool) {
	_ = m[35*stride+WinoLanes-1]
	winoOut4AVX2(&y[0], &m[0], stride*4, bias, relu)
}
