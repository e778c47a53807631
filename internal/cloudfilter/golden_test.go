package cloudfilter

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"seaice/internal/scene"
)

// resultDigest hashes every output of the filter in a fixed order: Image
// and CloudMask as bytes, then Opacity and Shadow as the little-endian
// IEEE bits of each pixel. Any single changed bit changes it.
func resultDigest(res *Result) string {
	h := sha256.New()
	h.Write(res.Image.Pix)
	h.Write(res.CloudMask.Pix)
	var b [8]byte
	for _, plane := range [][]float64{res.Opacity.Pix, res.Shadow.Pix} {
		for _, f := range plane {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(f))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestFilterGolden pins the filter's outputs to digests recorded before
// the filter was rewritten to reuse its scratch planes. The table covers
// the campaign path (the third 256² scene of GenerateAt for three seeds), one 32² serving
// tile and an odd, non-square image smaller than the dark-object window,
// each with both veil and shadow disturbance.
func TestFilterGolden(t *testing.T) {
	at := func(seed uint64) func() (*scene.Scene, error) {
		return func() (*scene.Scene, error) {
			cc := scene.DefaultCollection(seed)
			cc.Scenes, cc.W, cc.H = 3, 256, 256
			cc.ClearFraction, cc.LightBias = 0, 0.48
			return scene.GenerateAt(cc, 2)
		}
	}
	small := func(seed uint64, w, h int, freq float64) func() (*scene.Scene, error) {
		return func() (*scene.Scene, error) {
			cfg := scene.DefaultConfig(seed)
			cfg.W, cfg.H = w, h
			cfg.Clouds.Freq = freq
			return scene.Generate(cfg)
		}
	}
	cases := []struct {
		name string
		gen  func() (*scene.Scene, error)
		want string
	}{
		{"at/seed1", at(1), "3639bbe44973b8c4b4a6857d1fe1894f69f37c62c53e01ca7023e0bff05838d3"},
		{"at/seed2", at(2), "f63e1cf2d34c3cf2d79ba3bd20506095ae3a703b25316de61a345aef792ffa64"},
		{"at/seed3", at(3), "566540c428bf5cdac3f5ec20649f556d8a22aceab04d98293e27c9c30a783a46"},
		{"tile-32", small(4, 32, 32, 1.0/12), "91b8912b2d48829d631d111c0b11da47da2576f08272b9092cf4b32ab2d32928"},
		{"odd-17x41", small(30, 17, 41, 1.0/24), "e34aa5b015ca5b55ef6f39c30364a13044a54b7d20b4c46db48712bd66b8c75d"},
	}
	for _, c := range cases {
		sc, err := c.gen()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		res := FilterDefault(sc.Image)
		veiled, shadowed := 0, 0
		for i := range res.Opacity.Pix {
			if res.Opacity.Pix[i] > 0 {
				veiled++
			}
			if res.Shadow.Pix[i] > 0 {
				shadowed++
			}
		}
		if got := resultDigest(res); got != c.want {
			t.Errorf("%s: filter digest %s, want %s (%d veiled, %d shadowed pixels)", c.name, got, c.want, veiled, shadowed)
		}
	}
}
