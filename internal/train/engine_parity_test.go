package train

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"seaice/internal/noise"
	"seaice/internal/pool"
	"seaice/internal/raster"
	"seaice/internal/unet"
)

// paritySamples builds a deterministic synthetic tile set.
func paritySamples(seed uint64, n, size int) []Sample {
	rng := noise.NewRNG(seed, 0x9a7)
	out := make([]Sample, n)
	for i := range out {
		img := raster.NewRGB(size, size)
		for j := range img.Pix {
			img.Pix[j] = uint8(rng.Intn(256))
		}
		lab := raster.NewLabels(size, size)
		for j := range lab.Pix {
			lab.Pix[j] = raster.Class(rng.Intn(3))
		}
		out[i] = Sample{Image: img, Labels: lab}
	}
	return out
}

// The pre-engine (legacy) training path's two-epoch result on the
// paritySamples(42, 16, 16) set, recorded before that path was deleted:
// the epoch losses as float64 bit patterns, and the weights' sha256 over
// float64 little-endian bit patterns in Params order (the fingerprint
// seaice-train prints as "weights sha256").
const (
	legacyEpoch0Loss = 0x3ff2269764b07e22
	legacyEpoch1Loss = 0x3ff19b8e7c373838
	legacyWeightsSHA = "70ac63195f56c021b3f0fb9645fa1ab5a0a080fe1af2cfe2f362fc73de74670d"
)

// TestEngineLossParityWithLegacy: two epochs of training through the
// engine (direct kernels, buffer reuse, parallel GEMM/Adam) must
// reproduce the legacy path's recorded epoch losses and weights exactly —
// at every pool size. The engine's kernels preserve the reference
// accumulation orders, so the match is bitwise.
func TestEngineLossParityWithLegacy(t *testing.T) {
	defer pool.SetSharedWorkers(0)
	samples := paritySamples(42, 16, 16)
	cfg := Config{Epochs: 2, BatchSize: 8, LR: 0.01, Seed: 5}
	// FastConfig exercises dropout (rate 0.1), so RNG stream alignment
	// with the recorded run is covered too.
	want := []uint64{legacyEpoch0Loss, legacyEpoch1Loss}
	for _, workers := range []int{1, 4} {
		pool.SetSharedWorkers(workers)
		m, err := unet.New[float64](unet.FastConfig(3))
		if err != nil {
			t.Fatalf("model: %v", err)
		}
		res, err := Fit(m, samples, cfg)
		if err != nil {
			t.Fatalf("fit: %v", err)
		}
		if len(res.EpochLosses) != len(want) {
			t.Fatalf("workers=%d: %d epochs, want %d", workers, len(res.EpochLosses), len(want))
		}
		for e, bits := range want {
			if got := math.Float64bits(res.EpochLosses[e]); got != bits {
				t.Errorf("workers=%d epoch %d: loss %#x (%.17g), legacy %#x (%.17g)",
					workers, e, got, res.EpochLosses[e], bits, math.Float64frombits(bits))
			}
		}
		h := sha256.New()
		var b [8]byte
		for _, p := range m.Params() {
			for _, v := range p.W.Data {
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
				h.Write(b[:])
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != legacyWeightsSHA {
			t.Errorf("workers=%d: weights sha256 %s, legacy %s", workers, got, legacyWeightsSHA)
		}
	}
}
