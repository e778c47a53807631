package tensor

import (
	"math/rand"
	"testing"
)

// randGemmCase fills a random u8×s8 GEMM instance: weights over the full
// signed range, activations over the scheme's [0, 127] domain.
func randGemmCase(rng *rand.Rand, rows, k, npx int) (w []int8, x []uint8) {
	w = make([]int8, rows*k)
	for i := range w {
		w[i] = int8(rng.Intn(255) - 127)
	}
	x = make([]uint8, npx*k)
	for i := range x {
		x[i] = uint8(rng.Intn(QuantMax + 1))
	}
	return w, x
}

// TestGemmBackendParity asserts the backbone determinism contract: every
// registered int8 backend produces int32 outputs exactly equal to the
// scalar reference, across shapes that exercise row-pair tails, k tails
// (k%32 ≠ 0, k < 32), and the degenerate single-column case.
func TestGemmBackendParity(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	shapes := []struct{ rows, k, npx int }{
		{1, 1, 1},
		{3, 7, 5},
		{4, 32, 16},
		{5, 33, 17},
		{8, 27, 64},  // first conv layer shape class: k = 9·3
		{16, 72, 33}, // k = 9·8
		{7, 96, 40},
		{2, 301, 9},
	}
	for _, sh := range shapes {
		w, x := randGemmCase(rng, sh.rows, sh.k, sh.npx)
		want := make([]int32, sh.rows*sh.npx)
		gemmU8S8Ref(w, x, sh.rows, sh.k, sh.npx, want)
		for _, name := range Int8BackendNames() {
			ops := backendByName(t, name)
			if !ops.availableForTest() {
				continue
			}
			got := make([]int32, sh.rows*sh.npx)
			for i := range got {
				got[i] = -1 // poison: every slot must be overwritten
			}
			ops.GemmU8S8(w, x, sh.rows, sh.k, sh.npx, got)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("backend %q (%d×%d×%d): out[%d] = %d, reference %d",
						name, sh.rows, sh.k, sh.npx, i, got[i], want[i])
				}
			}
		}
	}
}

// TestGemmExtremes drives the accumulator to its documented worst case:
// all-max weights against all-max activations at a k near the layer cap,
// verifying no backend overflows where the bound says none can.
func TestGemmExtremes(t *testing.T) {
	const rows, k, npx = 2, 9 * 1024, 3 // deepest paper-config layer shape
	if k > Int8AccumBoundTaps {
		t.Fatalf("test shape k=%d exceeds documented bound %d", k, Int8AccumBoundTaps)
	}
	w := make([]int8, rows*k)
	x := make([]uint8, npx*k)
	for i := range w {
		w[i] = -QuantMax
	}
	for i := range x {
		x[i] = QuantMax
	}
	want := int32(-k * QuantMax * QuantMax)
	for _, name := range Int8BackendNames() {
		ops := backendByName(t, name)
		if !ops.availableForTest() {
			continue
		}
		out := make([]int32, rows*npx)
		ops.GemmU8S8(w, x, rows, k, npx, out)
		for i, v := range out {
			if v != want {
				t.Fatalf("backend %q: out[%d] = %d, want %d", name, i, v, want)
			}
		}
	}
}

func backendByName(t *testing.T, name string) *Int8Ops {
	t.Helper()
	int8Mu.Lock()
	defer int8Mu.Unlock()
	for _, b := range int8Backends {
		if b.Name == name {
			return b
		}
	}
	t.Fatalf("backend %q not registered", name)
	return nil
}

func (o *Int8Ops) availableForTest() bool { return o.available() }

// TestSelectInt8 covers the selection surface: selecting each available
// backend works and sticks; unknown names error and leave the active
// backend unchanged.
func TestSelectInt8(t *testing.T) {
	orig := Int8().Name
	defer func() {
		if err := SelectInt8(orig); err != nil {
			t.Fatalf("restoring backend %q: %v", orig, err)
		}
	}()
	for _, name := range Int8BackendNames() {
		if !backendByName(t, name).availableForTest() {
			continue
		}
		if err := SelectInt8(name); err != nil {
			t.Fatalf("SelectInt8(%q): %v", name, err)
		}
		if got := Int8().Name; got != name {
			t.Fatalf("after SelectInt8(%q), active = %q", name, got)
		}
	}
	if err := SelectInt8("no-such-backend"); err == nil {
		t.Fatal("SelectInt8 accepted an unknown backend")
	}
}

// BenchmarkGemmU8S8 measures each backend on representative conv GEMM
// shapes: enc1/conv2 (mid-encoder), dec2/conv1 (widest k, the post-concat
// decoder conv), and enc0/conv2 (shallow, many pixels).
func BenchmarkGemmU8S8(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	shapes := []struct {
		tag          string
		rows, k, npx int
	}{
		{"enc1c2-16x160x1024", 16, 160, 1024},
		{"dec2c1-32x576x256", 32, 576, 256},
		{"enc0c2-8x96x4096", 8, 96, 4096},
	}
	for _, name := range Int8BackendNames() {
		ops := backendForBench(name)
		if ops == nil || !ops.availableForTest() {
			continue
		}
		for _, sh := range shapes {
			w, x := randGemmCase(rng, sh.rows, sh.k, sh.npx)
			out := make([]int32, sh.rows*sh.npx)
			b.Run(name+"/"+sh.tag, func(b *testing.B) {
				b.SetBytes(int64(sh.rows*sh.k + sh.npx*sh.k))
				for i := 0; i < b.N; i++ {
					ops.GemmU8S8(w, x, sh.rows, sh.k, sh.npx, out)
				}
				b.ReportMetric(float64(sh.rows)*float64(sh.k)*float64(sh.npx)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GMAC/s")
			})
		}
	}
}

func backendForBench(name string) *Int8Ops {
	int8Mu.Lock()
	defer int8Mu.Unlock()
	for _, cand := range int8Backends {
		if cand.Name == name {
			return cand
		}
	}
	return nil
}
