package tensor

import (
	"fmt"
	"math/rand"
	"testing"
)

// gemmU8S8Ref is the plain definition of the u8×s8 product —
// out[r·npx+c] = Σ_i w[r·k+i]·x[c·k+i], one scalar multiply at a time —
// the oracle the GemmU8S8 adapter (and through it every backend's
// convolution kernel) is checked against.
func gemmU8S8Ref(w []int8, x []uint8, rows, k, npx int, out []int32) {
	for r := 0; r < rows; r++ {
		wr := w[r*k : (r+1)*k]
		orow := out[r*npx : (r+1)*npx]
		for c := 0; c < npx; c++ {
			xc := x[c*k : (c+1)*k]
			var acc int32
			for i, wv := range wr {
				acc += int32(wv) * int32(xc[i])
			}
			orow[c] = acc
		}
	}
}

// TestInt8ConvConformance: every registered int8 backend's ConvU8S8 equals
// the ref backend's exactly — both accumulate modes, pixel counts on
// either side of the SIMD pixel block, output-channel counts that are not
// a multiple of the lane group, one-run and three-run windows with
// overlapping pixels, run lengths from one 4-tap group to the widest
// layer's 3·192 bytes, and the saturation corners of VPMADDUBSW
// (activations 0 and 127 against weights ±127 and −128).
func TestInt8ConvConformance(t *testing.T) {
	ref := backendByName(t, "ref")
	rng := rand.New(rand.NewSource(17))
	type fill func(i int) int
	random := func(hi, lo int) fill { return func(int) int { return lo + rng.Intn(hi-lo+1) } }
	constant := func(v int) fill { return func(int) int { return v } }
	cases := []struct {
		name string
		w, x fill
	}{
		{"random", random(127, -128), random(QuantMax, 0)},
		{"x=127,w=127", constant(127), constant(QuantMax)},
		{"x=127,w=-127", constant(-127), constant(QuantMax)},
		{"x=127,w=-128", constant(-128), constant(QuantMax)},
		{"x=0,w=-128", constant(-128), constant(0)},
		{"x=127,w=±127", func(i int) int { return 127 - 254*(i&1) }, constant(QuantMax)},
	}
	for _, name := range Int8BackendNames() {
		ops := backendByName(t, name)
		if !ops.availableForTest() {
			continue
		}
		for _, tc := range cases {
			for _, outC := range []int{3, 8, 12, 64} {
				for _, runLen := range []int{4, 12, 24, 48, 100, 576} {
					for _, runs := range []int{1, 3} {
						for _, npx := range []int{1, 3, 4, 5, 8, 11} {
							ocPad := Int8LanePad(outC)
							k := runs * runLen
							wq := make([]int8, outC*k)
							for i := range wq {
								wq[i] = int8(tc.w(i))
							}
							packed := PackInt8Weights(wq, outC, k)
							// 1×1-style (pixels a run apart) and 3×3-style
							// (windows overlapping by two thirds) strides.
							pxStride := runLen
							if runs == 3 {
								pxStride = runLen / 3 &^ 3
							}
							runStride := (npx-1)*pxStride + runLen + 8
							x := make([]uint8, (npx-1)*pxStride+(runs-1)*runStride+runLen)
							for i := range x {
								x[i] = uint8(tc.x(i))
							}
							for _, add := range []bool{false, true} {
								want := make([]int32, npx*ocPad)
								for i := range want {
									want[i] = int32(rng.Intn(2001) - 1000) // start values (add) or poison
								}
								got := append([]int32(nil), want...)
								ref.ConvU8S8(want, x, packed, npx, pxStride, runs, runLen, runStride, ocPad, add)
								ops.ConvU8S8(got, x, packed, npx, pxStride, runs, runLen, runStride, ocPad, add)
								for i := range want {
									if got[i] != want[i] {
										t.Fatalf("backend %q %s outC=%d runs=%d runLen=%d npx=%d add=%v: acc[%d] = %d, ref %d",
											name, tc.name, outC, runs, runLen, npx, add, i, got[i], want[i])
									}
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestInt8ConvEmpty pins the degenerate calls the contract allows: no
// pixels is a no-op, a zero-length window zeroes (or keeps) the sums.
func TestInt8ConvEmpty(t *testing.T) {
	for _, name := range Int8BackendNames() {
		ops := backendByName(t, name)
		if !ops.availableForTest() {
			continue
		}
		acc := []int32{1, 2, 3, 4, 5, 6, 7, 8}
		ops.ConvU8S8(acc, nil, nil, 0, 4, 1, 4, 0, 8, false)
		ops.ConvU8S8(acc, nil, nil, 1, 0, 1, 0, 0, 8, true)
		if fmt.Sprint(acc) != "[1 2 3 4 5 6 7 8]" {
			t.Fatalf("backend %q: no-op calls changed acc to %v", name, acc)
		}
		ops.ConvU8S8(acc, nil, nil, 1, 0, 1, 0, 0, 8, false)
		if fmt.Sprint(acc) != "[0 0 0 0 0 0 0 0]" {
			t.Fatalf("backend %q: empty window left acc = %v", name, acc)
		}
	}
}
