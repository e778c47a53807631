package noise

import (
	"math"
	"testing"
	"testing/quick"
)

// The per-point evaluators below are the reference the Sampler must
// match bit for bit: they re-derive every octave's seed, frequency and
// amplitude and hash all four cell corners at every point, with no state
// between calls. Their arithmetic (including the float64 conversions
// that forbid fused multiply-adds) is the Sampler's; only the caching
// differs.

// refValue is smoothed value noise in [0,1) at (x, y).
func refValue(seed uint64, x, y float64) float64 {
	xf := math.Floor(x)
	yf := math.Floor(y)
	xi := int32(xf)
	yi := int32(yf)
	tx := smoothstep(x - xf)
	ty := smoothstep(y - yf)

	v00 := hash2(seed, xi, yi)
	v10 := hash2(seed, xi+1, yi)
	v01 := hash2(seed, xi, yi+1)
	v11 := hash2(seed, xi+1, yi+1)

	return lerp(lerp(v00, v10, tx), lerp(v01, v11, tx), ty)
}

// refFBM evaluates the fBm at (x, y), normalized to [0,1).
func refFBM(f FBM, x, y float64) float64 {
	oct := f.Octaves
	if oct < 1 {
		oct = 1
	}
	freq := f.Frequency
	amp := 1.0
	sum := 0.0
	norm := 0.0
	seed := f.Seed
	for i := 0; i < oct; i++ {
		sum += float64(amp * refValue(seed, float64(x*freq), float64(y*freq)))
		norm += amp
		freq *= f.Lacunarity
		amp *= f.Persistence
		seed = splitmix64(seed + 0x632be59bd9b4e019)
	}
	return sum / norm
}

// refRidged evaluates ridged multifractal noise in [0,1).
func refRidged(f FBM, x, y float64) float64 {
	oct := f.Octaves
	if oct < 1 {
		oct = 1
	}
	freq := f.Frequency
	amp := 1.0
	sum := 0.0
	norm := 0.0
	seed := f.Seed
	for i := 0; i < oct; i++ {
		v := refValue(seed, float64(x*freq), float64(y*freq))
		v = 1 - math.Abs(float64(2*v)-1)
		sum += float64(amp * v * v)
		norm += amp
		freq *= f.Lacunarity
		amp *= f.Persistence
		seed = splitmix64(seed + 0x9e3779b97f4a7c15)
	}
	return sum / norm
}

// refWarped evaluates the fBm at (x, y) displaced by two auxiliary fBm
// fields scaled by strength.
func refWarped(f FBM, x, y, strength float64) float64 {
	wx := FBM{Seed: splitmix64(f.Seed ^ 0xa5a5a5a5a5a5a5a5), Octaves: f.Octaves, Frequency: f.Frequency, Lacunarity: f.Lacunarity, Persistence: f.Persistence}
	wy := FBM{Seed: splitmix64(f.Seed ^ 0x5a5a5a5a5a5a5a5a), Octaves: f.Octaves, Frequency: f.Frequency, Lacunarity: f.Lacunarity, Persistence: f.Persistence}
	dx := float64((refFBM(wx, x, y) - 0.5) * 2 * strength)
	dy := float64((refFBM(wy, x, y) - 0.5) * 2 * strength)
	return refFBM(f, x+dx, y+dy)
}

// defaultFBM has conventional parameters: 5 octaves, lacunarity 2,
// persistence 0.5.
func defaultFBM(seed uint64, frequency float64) FBM {
	return FBM{Seed: seed, Octaves: 5, Frequency: frequency, Lacunarity: 2, Persistence: 0.5}
}

// value is single-octave value noise through a Sampler: with one octave
// of frequency 1 the fBm is the octave's value itself.
func value(seed uint64, x, y float64) float64 {
	return FBM{Seed: seed, Octaves: 1, Frequency: 1}.Sampler().At(x, y)
}

// walk is a named sequence of sample points.
type walk struct {
	name string
	pts  [][2]float64
}

// conformanceWalks returns point walks that exercise every path of the
// lattice-cell cache at lattice spacing 1/freq: points inside one cell,
// steps into the next cell along a row and across rows, a jump back to an
// earlier cell, y changing at a fixed x (a cache keyed on x alone would
// reuse a stale cell), negative coordinates and exact lattice points.
func conformanceWalks(rng *RNG, freq float64) []walk {
	cell := 1 / freq
	jitter := func() float64 { return (rng.Float64() - 0.5) * 1e-3 * cell }
	var within, step, back, column, negative, lattice, scan walk
	within.name = "within-cell"
	x0, y0 := (rng.Float64()*40-20)*cell, (rng.Float64()*40-20)*cell
	for i := 0; i < 16; i++ {
		within.pts = append(within.pts, [2]float64{x0 + rng.Float64()*0.01*cell, y0 + rng.Float64()*0.01*cell})
	}
	step.name = "step-across-cells"
	for i := 0; i < 64; i++ {
		step.pts = append(step.pts, [2]float64{x0 + float64(i)*0.37*cell, y0 + float64(i/8)*0.61*cell})
	}
	back.name = "jump-back"
	for i := 0; i < 8; i++ {
		back.pts = append(back.pts, [2]float64{x0 + float64(i)*cell, y0}, [2]float64{x0 - 3*cell + jitter(), y0 + jitter()})
	}
	column.name = "y-at-fixed-x"
	for i := 0; i < 32; i++ {
		column.pts = append(column.pts, [2]float64{x0, y0 + float64(i)*0.45*cell})
	}
	negative.name = "negative"
	for i := 0; i < 32; i++ {
		negative.pts = append(negative.pts, [2]float64{-float64(i) * 0.53 * cell, -rng.Float64() * 50 * cell})
	}
	lattice.name = "exact-integers"
	for i := -12; i < 12; i++ {
		lattice.pts = append(lattice.pts, [2]float64{float64(i), float64(-2 * i)}, [2]float64{float64(i) * cell, float64(i%3) * cell})
	}
	scan.name = "row-scan"
	for y := 0; y < 6; y++ {
		for x := 0; x < 24; x++ {
			scan.pts = append(scan.pts, [2]float64{float64(x) - 7, float64(y) - 2})
		}
	}
	return []walk{within, step, back, column, negative, lattice, scan}
}

// TestSamplerMatchesReference: plain, ridged and warped samplers return
// the reference's exact bits for random FBM parameters over every walk,
// each walk run on one sampler so the cache carries from point to point.
func TestSamplerMatchesReference(t *testing.T) {
	rng := NewRNG(2024, 1)
	for trial := 0; trial < 40; trial++ {
		f := FBM{
			Seed:        rng.Uint64(),
			Octaves:     rng.Intn(7),
			Frequency:   1 / (0.5 + rng.Float64()*60),
			Lacunarity:  1.5 + rng.Float64()*1.5,
			Persistence: 0.3 + rng.Float64()*0.5,
		}
		if trial%4 == 0 {
			// a power-of-two lattice spacing puts the integer and
			// whole-cell points of the walks exactly on lattice lines
			f.Frequency = 1 / float64(int(1)<<(trial/4%4))
		}
		strength := rng.Float64() * 40
		kinds := []struct {
			name string
			s    *Sampler
			ref  func(x, y float64) float64
		}{
			{"plain", f.Sampler(), func(x, y float64) float64 { return refFBM(f, x, y) }},
			{"ridged", f.RidgedSampler(), func(x, y float64) float64 { return refRidged(f, x, y) }},
			{"warped", f.WarpedSampler(strength), func(x, y float64) float64 { return refWarped(f, x, y, strength) }},
		}
		for _, w := range conformanceWalks(rng, f.Frequency) {
			for _, k := range kinds {
				for i, p := range w.pts {
					got, want := k.s.At(p[0], p[1]), k.ref(p[0], p[1])
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s %+v, walk %s point %d (%v, %v): sampler %v, reference %v",
							k.name, f, w.name, i, p[0], p[1], got, want)
					}
				}
			}
		}
	}
}

func TestValueDeterministic(t *testing.T) {
	a := value(42, 1.5, 2.5)
	b := value(42, 1.5, 2.5)
	if a != b {
		t.Fatal("same inputs produced different noise")
	}
	if value(42, 1.5, 2.5) == value(43, 1.5, 2.5) {
		t.Fatal("different seeds produced identical noise (suspicious)")
	}
	if a != refValue(42, 1.5, 2.5) {
		t.Fatal("one-octave sampler differs from the reference value noise")
	}
}

func TestValueRange(t *testing.T) {
	f := func(seed uint64, xi, yi int16, fx, fy uint8) bool {
		x := float64(xi) + float64(fx)/256
		y := float64(yi) + float64(fy)/256
		v := value(seed, x, y)
		return v >= 0 && v < 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestValueContinuity: value noise is C¹; nearby samples must be close.
func TestValueContinuity(t *testing.T) {
	const eps = 1e-4
	s := FBM{Seed: 7, Octaves: 1, Frequency: 1}.Sampler()
	for i := 0; i < 100; i++ {
		x := float64(i) * 0.37
		y := float64(i) * 0.59
		a := s.At(x, y)
		b := s.At(x+eps, y)
		if math.Abs(a-b) > 0.01 {
			t.Fatalf("discontinuity at (%f,%f): %f vs %f", x, y, a, b)
		}
	}
}

func TestValueInterpolatesLattice(t *testing.T) {
	// at integer lattice points, value noise returns the lattice hash,
	// and between them it stays within the hull of the corner values
	if v, h := value(3, 10, 20), hash2(3, 10, 20); v != h {
		t.Fatalf("lattice point value %v, hash %v", v, h)
	}
	v00 := value(3, 10, 20)
	v10 := value(3, 11, 20)
	mid := value(3, 10.5, 20)
	lo, hi := math.Min(v00, v10), math.Max(v00, v10)
	// mid blends corners of the row below/above as well, so use the
	// full 4-corner hull
	v01 := value(3, 10, 21)
	v11 := value(3, 11, 21)
	lo = math.Min(lo, math.Min(v01, v11))
	hi = math.Max(hi, math.Max(v01, v11))
	if mid < lo-1e-12 || mid > hi+1e-12 {
		t.Fatalf("interpolant %f outside corner hull [%f,%f]", mid, lo, hi)
	}
}

func TestFBMRangeAndOctaves(t *testing.T) {
	f := defaultFBM(9, 0.05).Sampler()
	for i := 0; i < 200; i++ {
		v := f.At(float64(i)*1.3, float64(i)*0.7)
		if v < 0 || v >= 1 {
			t.Fatalf("fbm out of range: %f", v)
		}
	}
	// zero octaves treated as one
	z := FBM{Seed: 1, Octaves: 0, Frequency: 0.1, Lacunarity: 2, Persistence: 0.5}
	if v := z.Sampler().At(3, 4); v < 0 || v >= 1 {
		t.Fatalf("degenerate fbm out of range: %f", v)
	}
	one := z
	one.Octaves = 1
	if a, b := z.Sampler().At(3, 4), one.Sampler().At(3, 4); a != b {
		t.Fatalf("zero octaves %v, one octave %v", a, b)
	}
}

func TestRidgedRange(t *testing.T) {
	f := defaultFBM(11, 0.03).RidgedSampler()
	for i := 0; i < 200; i++ {
		v := f.At(float64(i)*0.9, float64(i)*1.1)
		if v < 0 || v > 1 {
			t.Fatalf("ridged out of range: %f", v)
		}
	}
}

func TestWarpedDiffersFromPlain(t *testing.T) {
	f := defaultFBM(13, 0.02)
	plain, warped := f.Sampler(), f.WarpedSampler(30)
	diff := 0
	for i := 0; i < 50; i++ {
		x, y := float64(i)*3.1, float64(i)*2.7
		if plain.At(x, y) != warped.At(x, y) {
			diff++
		}
	}
	if diff < 40 {
		t.Fatalf("warping changed only %d/50 samples", diff)
	}
}

func TestRNGDeterministicStreams(t *testing.T) {
	a := NewRNG(5, 1)
	b := NewRNG(5, 1)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same stream diverged")
		}
	}
	c := NewRNG(5, 2)
	d := NewRNG(5, 1)
	same := 0
	for i := 0; i < 100; i++ {
		if c.Uint64() == d.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams 1 and 2 collide on %d/100 outputs", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(6, 1)
	for i := 0; i < 1000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("float64 out of range: %f", v)
		}
	}
}

func TestIntnBoundsAndPanic(t *testing.T) {
	r := NewRNG(7, 1)
	for i := 0; i < 1000; i++ {
		if v := r.Intn(7); v < 0 || v >= 7 {
			t.Fatalf("intn out of range: %d", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) must panic")
		}
	}()
	r.Intn(0)
}

func TestNormFloat64Moments(t *testing.T) {
	r := NewRNG(8, 1)
	const n = 20000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.03 {
		t.Fatalf("normal mean %f", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Fatalf("normal variance %f", variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRNG(9, 1)
	p := r.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}
