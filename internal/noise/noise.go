// Package noise provides deterministic, seedable procedural noise used by
// the synthetic Sentinel-2 scene generator. It implements smoothed value
// noise, fractional Brownian motion (fBm), ridged multifractal noise, and
// domain warping — the standard toolkit for generating natural-looking
// ice-concentration and cloud-density fields.
//
// A field is described by an FBM and evaluated through a Sampler
// (FBM.Sampler, RidgedSampler, WarpedSampler), the only evaluation path.
// The sampler derives each octave's seed, frequency and amplitude once,
// and each octave caches the lattice cell of its last point, so a scan
// over neighbouring pixels hashes a cell's corners once instead of at
// every point. A Sampler carries that cache and is not safe for
// concurrent use; callers build one per goroutine.
//
// Values are pure with respect to the seed: the same (seed, x, y)
// always yields the same bits, in any evaluation order, which keeps the
// entire experiment pipeline reproducible. Products that feed a sum are
// rounded explicitly (float64(a*b)), so no target fuses them into a
// multiply-add (scripts/nofma.sh checks this on arm64).
package noise

import "math"

// splitmix64 is the SplitMix64 mixing function. It is used to derive
// high-quality per-lattice-point hashes from a seed and coordinates.
func splitmix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// hash2 maps an integer lattice point and seed to a uniform value in [0,1).
func hash2(seed uint64, x, y int32) float64 {
	h := splitmix64(seed ^ splitmix64(uint64(uint32(x))<<32|uint64(uint32(y))))
	return float64(h>>11) / float64(1<<53)
}

// smoothstep is the cubic Hermite interpolant 3t²-2t³ on [0,1].
func smoothstep(t float64) float64 { return t * t * (3 - float64(2*t)) }

// lerp linearly interpolates between a and b by t.
func lerp(a, b, t float64) float64 { return a + float64((b-a)*t) }

// FBM holds parameters for fractional Brownian motion: a sum of noise
// octaves with geometrically increasing frequency and decreasing amplitude.
// A field is evaluated through a Sampler built from it.
type FBM struct {
	Seed        uint64
	Octaves     int     // number of layers; values <1 are treated as 1
	Frequency   float64 // base spatial frequency (cycles per unit)
	Lacunarity  float64 // frequency multiplier per octave (typically 2)
	Persistence float64 // amplitude multiplier per octave (typically 0.5)
}

// Sampler evaluates one noise field point by point. It works out each
// octave's seed, frequency and amplitude and the field's norm once, and
// each octave keeps the lattice cell of its last point with the cell's
// four corner hashes, so neighbouring points skip the hashing. The cache
// changes the cost of a point, never its value: At returns the same bits
// in any evaluation order.
//
// A Sampler is not safe for concurrent use. Build one per goroutine (the
// scene generator builds its own per scene).
type Sampler struct {
	oct    []octave
	norm   float64
	ridged bool
	// warp displaces the sample point by two auxiliary plain fields
	// scaled by strength; nil for an unwarped field.
	warp     *[2]Sampler
	strength float64
}

// octave is one noise layer plus its lattice-cell cache.
type octave struct {
	seed      uint64
	freq, amp float64

	xi, yi             int32
	v00, v10, v01, v11 float64
}

// The seed chain adds one of these before mixing the next octave's seed.
const (
	fbmStep    = 0x632be59bd9b4e019
	ridgedStep = 0x9e3779b97f4a7c15
)

// newSampler lays out the octaves of f, chaining their seeds with step.
func newSampler(f FBM, step uint64) Sampler {
	n := f.Octaves
	if n < 1 {
		n = 1
	}
	s := Sampler{oct: make([]octave, n)}
	freq, amp, seed := f.Frequency, 1.0, f.Seed
	for i := range s.oct {
		o := &s.oct[i]
		o.seed, o.freq, o.amp = seed, freq, amp
		o.fill(0, 0)
		s.norm += amp
		freq *= f.Lacunarity
		amp *= f.Persistence
		seed = splitmix64(seed + step)
	}
	return s
}

// Sampler returns a sampler of the fBm normalized to [0,1).
func (f FBM) Sampler() *Sampler {
	s := newSampler(f, fbmStep)
	return &s
}

// RidgedSampler returns a sampler of ridged multifractal noise in [0,1):
// each octave is folded around its midpoint (1-|2v-1|) and squared,
// producing sharp crease lines. The scene generator uses it to carve leads
// (narrow linear cracks) into the ice field.
func (f FBM) RidgedSampler() *Sampler {
	s := newSampler(f, ridgedStep)
	s.ridged = true
	return &s
}

// WarpedSampler returns a sampler of the fBm with domain warping: the
// sample point is first displaced by two auxiliary fBm fields scaled by
// strength. Warping breaks up the axis-aligned artifacts of lattice noise
// and yields the swirling shapes characteristic of pack ice and cloud
// veils.
func (f FBM) WarpedSampler(strength float64) *Sampler {
	wx, wy := f, f
	wx.Seed = splitmix64(f.Seed ^ 0xa5a5a5a5a5a5a5a5)
	wy.Seed = splitmix64(f.Seed ^ 0x5a5a5a5a5a5a5a5a)
	s := newSampler(f, fbmStep)
	s.warp = &[2]Sampler{newSampler(wx, fbmStep), newSampler(wy, fbmStep)}
	s.strength = strength
	return &s
}

// At evaluates the field at (x, y).
func (s *Sampler) At(x, y float64) float64 {
	if s.warp != nil {
		dx := float64((s.warp[0].At(x, y) - 0.5) * 2 * s.strength)
		dy := float64((s.warp[1].At(x, y) - 0.5) * 2 * s.strength)
		x, y = x+dx, y+dy
	}
	sum := 0.0
	for i := range s.oct {
		o := &s.oct[i]
		v := o.value(float64(x*o.freq), float64(y*o.freq))
		if s.ridged {
			v = 1 - math.Abs(float64(2*v)-1)
			v = float64(o.amp * v * v)
		} else {
			v = float64(o.amp * v)
		}
		sum += v
	}
	return sum / s.norm
}

// value is smoothed value noise in [0,1) at (x, y): the lattice values
// of the enclosing cell bilinearly blended with a smoothstep fade, giving
// C¹-continuous output.
func (o *octave) value(x, y float64) float64 {
	xf := math.Floor(x)
	yf := math.Floor(y)
	if xi, yi := int32(xf), int32(yf); xi != o.xi || yi != o.yi {
		o.fill(xi, yi)
	}
	tx := smoothstep(x - xf)
	ty := smoothstep(y - yf)
	return lerp(lerp(o.v00, o.v10, tx), lerp(o.v01, o.v11, tx), ty)
}

// fill hashes the four corners of lattice cell (xi, yi) into the cache.
func (o *octave) fill(xi, yi int32) {
	o.xi, o.yi = xi, yi
	o.v00 = hash2(o.seed, xi, yi)
	o.v10 = hash2(o.seed, xi+1, yi)
	o.v01 = hash2(o.seed, xi, yi+1)
	o.v11 = hash2(o.seed, xi+1, yi+1)
}

// RNG is a small, fast, seedable PCG-XSH-RR style generator used wherever
// the pipeline needs a stream of reproducible pseudo-random numbers
// independent of math/rand's global state.
type RNG struct {
	state uint64
	inc   uint64
}

// NewRNG returns a generator seeded deterministically from seed and stream.
// Distinct streams yield independent sequences for the same seed.
func NewRNG(seed, stream uint64) *RNG {
	r := &RNG{inc: stream<<1 | 1}
	r.state = splitmix64(seed)
	r.Uint64()
	return r
}

// Uint64 returns the next 64-bit value.
func (r *RNG) Uint64() uint64 {
	r.state = r.state*6364136223846793005 + r.inc
	x := r.state
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return x
}

// Float64 returns a uniform value in [0,1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// Intn returns a uniform value in [0,n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("noise: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// NormFloat64 returns a standard normal variate via the Box–Muller
// transform (one value per call; the pair's second member is discarded to
// keep the generator stateless beyond its counter).
func (r *RNG) NormFloat64() float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// RNGState is the full serializable state of an RNG: restoring it
// resumes the stream at the exact position it was captured, which is how
// the fault-tolerance snapshots (internal/ddp) replay dropout noise
// bit-identically after a crash.
type RNGState struct {
	State, Inc uint64
}

// State captures the generator's position.
func (r *RNG) State() RNGState { return RNGState{State: r.state, Inc: r.inc} }

// SetState rewinds (or fast-forwards) the generator to a captured
// position.
func (r *RNG) SetState(st RNGState) { r.state, r.inc = st.State, st.Inc }

// Perm returns a deterministic pseudo-random permutation of [0,n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
