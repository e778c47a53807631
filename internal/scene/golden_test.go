package scene

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"
)

// sceneDigest hashes every plane of a scene in a fixed order: Image,
// Clean, Truth and CloudMask as bytes, CloudOpacity and Shadow as the
// little-endian IEEE bits of each pixel, then the bits of CloudFraction.
// Any single changed bit anywhere in the scene changes it.
func sceneDigest(sc *Scene) string {
	h := sha256.New()
	h.Write(sc.Image.Pix)
	h.Write(sc.Clean.Pix)
	for _, c := range sc.Truth.Pix {
		h.Write([]byte{byte(c)})
	}
	h.Write(sc.CloudMask.Pix)
	writeFloats(h, sc.CloudOpacity.Pix)
	writeFloats(h, sc.Shadow.Pix)
	writeFloats(h, []float64{sc.CloudFraction})
	return hex.EncodeToString(h.Sum(nil))
}

func writeFloats(h hash.Hash, v []float64) {
	var b [8]byte
	for _, f := range v {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(f))
		h.Write(b[:])
	}
}

// goldenConfig is DefaultConfig(seed) at w×h with the given cloud
// offsets and a cloud field fine enough that a small scene holds both
// clear and cloudy pixels.
func goldenConfig(seed uint64, w, h, offX, offY int) Config {
	cfg := DefaultConfig(seed)
	cfg.W, cfg.H = w, h
	cfg.Clouds.Freq = 1.0 / 40
	cfg.Clouds.OffsetX, cfg.Clouds.OffsetY = offX, offY
	return cfg
}

// TestGenerateGolden pins every plane of a table of scenes to digests
// recorded before the generator evaluated its fields through cached
// samplers and shared one veil evaluation between the opacity and the
// shadow. The table covers the campaign path (GenerateAt), a size that is
// odd and not square, a clear sky, partial-night illumination, and cloud
// offsets that are zero, negative and larger than the scene, so the
// shadow reads the veil from inside the scene, from the margin beside it
// and from wholly outside it.
func TestGenerateGolden(t *testing.T) {
	at := func(seed uint64) func() (*Scene, error) {
		return func() (*Scene, error) {
			cc := DefaultCollection(seed)
			cc.Scenes, cc.W, cc.H = 3, 256, 256
			cc.ClearFraction, cc.LightBias = 0, 0.48
			return GenerateAt(cc, 0)
		}
	}
	gen := func(cfg Config) func() (*Scene, error) {
		return func() (*Scene, error) { return Generate(cfg) }
	}
	clear := DefaultConfig(6)
	clear.W, clear.H = 64, 48
	clear.Clouds = ClearClouds()
	dim := goldenConfig(7, 64, 64, 96, 64)
	dim.Illumination = 0.55

	cases := []struct {
		name string
		gen  func() (*Scene, error)
		want string
	}{
		{"at/seed1", at(1), "0b6dd56383f83f2f952dac70be80fcd060d28ff3108485f27331424a87693463"},
		{"at/seed2", at(2), "4b4ddb43208de6c3a1a8a047ee6be1b986d965b3e5cfad488e78653acd9bcc58"},
		{"at/seed3", at(3), "4f0ae183d3038601f2069ddc2cccf5f41b66afd0db0c08f1a50a1d32b880ef0b"},
		{"odd-33x17", gen(goldenConfig(5, 33, 17, 96, 64)), "2b3c11655604c1a9cf0d5091cfe9d294df8baefe6966074a5d625da87bf2c4a9"},
		{"clear", gen(clear), "499b5293cb0889816faa13158666e04b94f9b0ba2af9bd7d0422993186aeb69a"},
		{"illumination-0.55", gen(dim), "28a520be7a1c6deb2dc0f0e746d707ad7ee662c11c382e2d722c9b6c3394fd61"},
		{"offset-zero", gen(goldenConfig(8, 80, 56, 0, 0)), "3f8716a99845421884fe68b99144453e44682597a4883e0010e747ed05750358"},
		{"offset-negative", gen(goldenConfig(9, 80, 56, -40, -17)), "d224d1aa98e43ad94acfc44985b28cd875b5675b124de66cb872127ebd82713f"},
		{"offset-beyond-scene", gen(goldenConfig(10, 40, 24, 96, 64)), "3f6676874f68ef4538475ab26efa0a1c634e7b86f990d2fc6acf5db562e420bb"},
	}
	for _, c := range cases {
		sc, err := c.gen()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := sceneDigest(sc); got != c.want {
			t.Errorf("%s: scene digest %s, want %s (cloud fraction %v)", c.name, got, c.want, sc.CloudFraction)
		}
	}
}
