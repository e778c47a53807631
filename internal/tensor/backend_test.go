package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"seaice/internal/pool"
)

// useFloat32Backend activates the named float32 backend for the rest of
// the test (skipping it when the host cannot run it) and restores the
// previous one afterwards. Tests that switch backends do not run in
// parallel.
func useFloat32Backend(t testing.TB, name string) {
	t.Helper()
	prev := Float[float32]().Name
	if err := SelectFloat[float32](name); err != nil {
		t.Skipf("float32 backend %s: %v", name, err)
	}
	t.Cleanup(func() {
		if err := SelectFloat[float32](prev); err != nil {
			t.Fatal(err)
		}
	})
}

// float32BackendNames lists every registered float32 backend.
func float32BackendNames() []string {
	f32Registry.mu.Lock()
	defer f32Registry.mu.Unlock()
	var names []string
	for _, b := range f32Registry.all {
		names = append(names, b.Name)
	}
	return names
}

// fillAwkward fills s with normal values salted with the operands that
// expose a reassociated, fused or lane-crossed kernel: exact zeros of
// both signs, subnormals, and magnitudes far apart.
func fillAwkward(rng *rand.Rand, s []float32) {
	for i := range s {
		switch rng.Intn(12) {
		case 0:
			s[i] = 0
		case 1:
			s[i] = float32(math.Copysign(0, -1))
		case 2:
			s[i] = math.Float32frombits(uint32(1 + rng.Intn(1<<20))) // subnormal
		case 3:
			s[i] = float32(rng.NormFloat64()) * 1e-30
		case 4:
			s[i] = float32(rng.NormFloat64()) * 1e6
		default:
			s[i] = float32(rng.NormFloat64())
		}
	}
}

// poison overwrites s so a kernel that skips an element cannot pass on
// the previous call's result.
func poison(s []float32) {
	for i := range s {
		s[i] = 7
	}
}

// sameBits fails unless got and want agree bit for bit; two NaNs agree
// whatever their payloads (the contract pins where a NaN lands, not which).
func sameBits(t *testing.T, label string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d elements, want %d", label, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g != g && w != w {
			continue
		}
		if math.Float32bits(g) != math.Float32bits(w) {
			t.Fatalf("%s: element %d = %g (%#08x), want %g (%#08x)", label, i, g, math.Float32bits(g), w, math.Float32bits(w))
		}
	}
}

// TestFloatBackendConformance is the float side of the determinism
// contract in backend.go: every registered float32 backend, at 1/2/3
// shared-pool workers, must reproduce the serial reference kernels of
// ref.go bit for bit through every entry that resolves a panel —
// MatMulInto, MatMulSerialInto, GemmSerial, and the raw Panel with column
// sub-ranges, a strided A and k-blocked accumulation — on shapes with
// m%4, n%8 and k%4 tails and on degenerate ones.
func TestFloatBackendConformance(t *testing.T) {
	shapes := [][3]int{
		{1, 1, 1}, {3, 1, 7}, {4, 4, 8}, {4, 5, 9}, {5, 3, 16}, {7, 13, 23},
		{8, 8, 64}, {16, 72, 40}, {6, 27, 100}, {13, 9, 8}, {2, 64, 33},
		{32, 288, 24}, {3, 5, 1031}, {16, 72, 2048}, {9, 130, 515},
	}
	rng := rand.New(rand.NewSource(16))
	for i := 0; i < 12; i++ {
		shapes = append(shapes, [3]int{1 + rng.Intn(21), 1 + rng.Intn(70), 1 + rng.Intn(90)})
	}
	defer pool.SetSharedWorkers(0)
	for _, name := range float32BackendNames() {
		t.Run(name, func(t *testing.T) {
			useFloat32Backend(t, name)
			ops := Float[float32]()
			for _, workers := range []int{1, 2, 3} {
				pool.SetSharedWorkers(workers)
				for _, s := range shapes {
					m, k, n := s[0], s[1], s[2]
					label := fmt.Sprintf("%s workers=%d %dx%dx%d", name, workers, m, k, n)
					a, b := New[float32](m, k), New[float32](k, n)
					fillAwkward(rng, a.Data)
					fillAwkward(rng, b.Data)
					want := MatMulRef(a, b).Data

					got := New[float32](m, n)
					MatMulInto(got, a, b)
					sameBits(t, label+" MatMulInto", got.Data, want)
					poison(got.Data)
					MatMulSerialInto(got, a, b)
					sameBits(t, label+" MatMulSerialInto", got.Data, want)
					poison(got.Data)
					GemmSerial(got.Data, a.Data, b.Data, m, k, n)
					sameBits(t, label+" GemmSerial", got.Data, want)

					// Column sub-ranges (some narrower than a vector) over
					// an A whose rows sit lda > k apart, accumulated over
					// two k blocks: the blocked chain must equal the whole.
					lda := k + 3
					wide := make([]float32, m*lda)
					for i := 0; i < m; i++ {
						copy(wide[i*lda:], a.Data[i*k:(i+1)*k])
					}
					poison(got.Data)
					k0 := k / 2
					for jlo := 0; jlo < n; {
						jhi := min(n, jlo+1+rng.Intn(19))
						ops.Panel(got.Data, wide, b.Data, m, k0, n, lda, jlo, jhi, false)
						ops.Panel(got.Data, wide[k0:], b.Data[k0*n:], m, k-k0, n, lda, jlo, jhi, true)
						jlo = jhi
					}
					sameBits(t, label+" Panel blocked", got.Data, want)
				}
			}

			// Degenerate panels: k = 0 zeroes C (or keeps it under acc),
			// empty row and column ranges touch nothing.
			c := []float32{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36}
			keep := append([]float32(nil), c...)
			ops.Panel(c, nil, nil, 4, 0, 9, 0, 0, 9, true)
			sameBits(t, name+" k=0 acc", c, keep)
			ops.Panel(c, nil, nil, 0, 0, 9, 0, 0, 9, false)
			ops.Panel(c, nil, nil, 4, 0, 9, 0, 5, 5, false)
			sameBits(t, name+" empty", c, keep)
			ops.Panel(c, nil, nil, 4, 0, 9, 0, 0, 9, false)
			sameBits(t, name+" k=0", c, make([]float32, 36))
		})
	}
}

// TestFloatBackendNonFinite: NaN and ±Inf must land in the same elements
// on every backend. The oracle is the engine backend rather than ref.go,
// which skips zero A entries and so drops the NaN of 0·Inf.
func TestFloatBackendNonFinite(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const m, k, n = 9, 11, 21
	a, b := New[float32](m, k), New[float32](k, n)
	fillAwkward(rng, a.Data)
	fillAwkward(rng, b.Data)
	inf := float32(math.Inf(1))
	a.Data[3], a.Data[k+1], a.Data[5*k+2] = inf, -inf, float32(math.NaN())
	b.Data[2], b.Data[4*n+9], b.Data[7*n+20] = -inf, float32(math.NaN()), inf
	useFloat32Backend(t, "engine")
	want := New[float32](m, n)
	MatMulSerialInto(want, a, b)
	for _, name := range float32BackendNames() {
		t.Run(name, func(t *testing.T) {
			useFloat32Backend(t, name)
			got := New[float32](m, n)
			MatMulSerialInto(got, a, b)
			sameBits(t, name, got.Data, want.Data)
		})
	}
}

// TestSelectFloat covers the selection rule the float tables share with
// the int8 one.
func TestSelectFloat(t *testing.T) {
	if err := SelectFloat[float32]("no-such-backend"); err == nil {
		t.Fatal("unknown float32 backend accepted")
	}
	if err := SelectFloat[float64]("avx2"); err == nil {
		t.Fatal("float64 has no avx2 backend, yet it was selected")
	}
	best := Float[float32]()
	f32Registry.mu.Lock()
	for _, b := range f32Registry.all {
		if b.available() && b.Priority > best.Priority {
			t.Errorf("active float32 backend %s (priority %d) but %s (priority %d) is available", best.Name, best.Priority, b.Name, b.Priority)
		}
	}
	f32Registry.mu.Unlock()
	if Float[float64]().Name != "engine" {
		t.Errorf("float64 backend %q, want engine", Float[float64]().Name)
	}
}
