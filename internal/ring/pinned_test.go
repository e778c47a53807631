package ring

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"testing"

	"seaice/internal/noise"
)

// pinnedDigests are sha256 digests of AllReduceMeanChunked's outputs —
// every rank's vector, little-endian, for each length of pinnedLengths
// in order — keyed by precision, chunk argument (0 = DefaultChunk) and
// rank count. They were recorded before the schedule was shared with
// the TCP link; a mismatch means the reduce moved a bit (accumulation
// order, segment geometry or the mean scale changed), which every
// training sha256 downstream would inherit.
var pinnedDigests = map[string]string{
	"f32/chunk=64/p=1": "1faa4762d8269d15bcf85f7f493b309fe23bf7f9a253378e798e90b4cd98d04b",
	"f64/chunk=64/p=1": "37d784c849834f81a95a10c4f151b2676850235b0cd16111f55bf8b90eff45d4",
	"f32/chunk=64/p=2": "7295f5fc85ea81266ab86b942a8904ac1c4480e804786a82b8855772e00a30c3",
	"f64/chunk=64/p=2": "0101abcb1cf72c763988868e1bc20034abd0cea8319c16e24bcdea3c54ec6b7a",
	"f32/chunk=64/p=3": "a38eb719adfc19250e6c9d2148fa8cfffb474eaf3da8aa1dbf805f112b417981",
	"f64/chunk=64/p=3": "ccdd616d442bd048f05543e0978cad6838c25e47ed7df1dc116be2469505a76c",
	"f32/chunk=64/p=5": "4739cf3cd8f393c8041a2513d8d7f97bcbb59db274bb15cec57a0ab200a9267b",
	"f64/chunk=64/p=5": "7abe69067362d652d81a5fb77dc3c8474b1b1906db56b6ebfffbac3ca9425aa0",
	"f32/chunk=0/p=1":  "b5cdafcd617c9c536a5bac9bdc40fb19c0d6b0e469ffd6a506abda9e5a9abdab",
	"f64/chunk=0/p=1":  "7103c190ec1de6276cdf15d2863ad7f16997702294f656192ff959412588a376",
	"f32/chunk=0/p=2":  "7bb48984c405da97d5b43f0524bb82e1a0d3472b151d8a9f60a7ee70cd249f24",
	"f64/chunk=0/p=2":  "bb78313e433128caf2f83fc359c41516f3158b4f1c38bf59835d08a3410a7c2e",
	"f32/chunk=0/p=3":  "5877d6da00f62d3f2f69e4e20ffad8642261df7b10f618defb56dfb926961c1e",
	"f64/chunk=0/p=3":  "5cf31c1e1e6f0598fad1cc9e8ec5461cc800ec14549cf3b498066cb3c2592254",
	"f32/chunk=0/p=5":  "d3dde4bd3fe57a7e0e5bbd76bc131cbd39a41d6de93ddbe4649ecdc93962deb9",
	"f64/chunk=0/p=5":  "83e2be4d9b0e415a3faa107ac0643daf00ac4be90d463abd3dbfea7114b40de1",
}

// pinnedLengths are the vector lengths each digest covers: empty, one
// element, shorter than the ring, and either side of one and of several
// segments.
func pinnedLengths(p, chunk int) []int {
	if chunk <= 0 {
		chunk = DefaultChunk
	}
	return []int{0, 1, p - 1, chunk - 1, chunk, chunk + 1, 3*chunk + 217}
}

func pinnedDigest[S Scalar](t *testing.T, p, chunk int) string {
	t.Helper()
	h := sha256.New()
	for _, n := range pinnedLengths(p, chunk) {
		rng := noise.NewRNG(uint64(p*1_000_003+n), 7)
		vecs := make([][]S, p)
		for r := range vecs {
			vecs[r] = make([]S, n)
			for i := range vecs[r] {
				vecs[r][i] = S(rng.NormFloat64())
			}
		}
		if err := AllReduceMeanChunked(vecs, chunk); err != nil {
			t.Fatalf("p=%d n=%d: %v", p, n, err)
		}
		for _, v := range vecs {
			if err := binary.Write(h, binary.LittleEndian, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestAllReduceMeanPinnedBytes holds the in-process reduce to its
// recorded bytes.
func TestAllReduceMeanPinnedBytes(t *testing.T) {
	for _, chunk := range []int{64, 0} {
		for _, p := range []int{1, 2, 3, 5} {
			for _, prec := range []string{"f32", "f64"} {
				key := fmt.Sprintf("%s/chunk=%d/p=%d", prec, chunk, p)
				var got string
				if prec == "f32" {
					got = pinnedDigest[float32](t, p, chunk)
				} else {
					got = pinnedDigest[float64](t, p, chunk)
				}
				if want := pinnedDigests[key]; got != want {
					t.Errorf("%s: sha256 %s, want %s", key, got, want)
				}
			}
		}
	}
}
