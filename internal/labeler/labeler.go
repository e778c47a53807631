// Package labeler makes the auto-labeling step pluggable: the paper's
// HSV color-threshold segmentation (internal/autolabel) becomes one of
// three interchangeable labeling engines behind the Labeler interface,
// joined by mini-batch K-means and a diagonal-covariance Gaussian
// mixture fitted by EM — the unsupervised band-vector clustering the
// related Sentinel-2 lead-classification work reports at 99.6% agreement
// with ESA reference labels. Engines are selected on the CLIs with
// -labeler hsv|kmeans|gmm[:k] and threaded through dataset.BuildConfig,
// so the whole training workflow can run on any of them.
//
// Parallelism/bit-identity guarantees: every engine is deterministic in
// (image, config, seed) and byte-identical at any worker count. The
// clustering engines fit with a seeded noise.RNG whose draws never
// depend on scheduling (fitting is a serial recurrence; only bulk
// per-pixel passes fan out, over pool.Shared()), reductions accumulate
// fixed-size chunk partials in chunk order, and the GMM E-step routes
// its Gaussian log-densities through the tensor GEMM engine, which
// carries the same bit-identity guarantee. The package property tests
// assert worker-count invariance for every engine, mirroring the
// autolabel tests. Products that feed a sum are rounded explicitly
// (float64(a*b)), so no target fuses them into a multiply-add
// (scripts/nofma.sh checks this on arm64).
package labeler

import (
	"fmt"
	"strconv"
	"strings"

	"seaice/internal/autolabel"
	"seaice/internal/raster"
)

// Labeler is one labeling engine: it turns an RGB scene (or tile) into a
// per-pixel class map. Implementations must be deterministic in the
// image and their own configuration — the same input yields byte-
// identical labels at any pool.Shared() worker count — because shard
// checkpoints and golden tests fingerprint labeler output.
type Labeler interface {
	// Name returns the canonical engine spec, e.g. "hsv", "kmeans:3",
	// "gmm:2" — round-trippable through Parse and stable across runs, so
	// it can key checkpoints and reports.
	Name() string
	// Label classifies every pixel of img.
	Label(img *raster.RGB) (*raster.Labels, error)
}

// HSV is the paper's engine: fixed HSV threshold boxes (§III-B),
// delegated to internal/autolabel.
type HSV struct {
	T autolabel.Thresholds
}

// PaperHSV returns the HSV engine with the published Ross Sea
// thresholds.
func PaperHSV() HSV { return HSV{T: autolabel.PaperThresholds()} }

// Name implements Labeler.
func (h HSV) Name() string { return "hsv" }

// Label implements Labeler via autolabel.Label.
func (h HSV) Label(img *raster.RGB) (*raster.Labels, error) {
	return autolabel.Label(img, h.T)
}

// MaxClusters is the largest cluster count a spec may ask for. Clusters
// fold into classes by centroid brightness, which has 256 value levels:
// more clusters than that cannot change a label, they only cost memory
// and time in Label.
const MaxClusters = 256

// Parse resolves a CLI engine spec — "hsv", "kmeans", "gmm", optionally
// with a cluster count in [1, MaxClusters] as in "kmeans:4" — into a
// Labeler. seed feeds the clustering engines' deterministic RNG; hsv
// ignores it. The empty spec selects hsv, the paper's engine. A spec
// without a count resolves to the engine's default count, so "kmeans" and
// "kmeans:8" are one configuration with one Fingerprint, and
// Parse(l.Name(), seed) returns l again.
func Parse(spec string, seed uint64) (Labeler, error) {
	name, arg, hasArg := strings.Cut(spec, ":")
	k := 0
	if hasArg {
		v, err := strconv.Atoi(arg)
		if err != nil || v < 1 || v > MaxClusters {
			return nil, fmt.Errorf("labeler: bad cluster count %q in spec %q (want 1..%d)", arg, spec, MaxClusters)
		}
		k = v
	}
	switch name {
	case "", "hsv":
		if hasArg {
			return nil, fmt.Errorf("labeler: hsv takes no cluster count (got %q)", spec)
		}
		return PaperHSV(), nil
	case "kmeans":
		return KMeans{K: KMeans{K: k}.kmeansDefaults().K, Seed: seed}, nil
	case "gmm":
		return GMM{K: GMM{K: k}.gmmDefaults().K, Seed: seed}, nil
	default:
		return nil, fmt.Errorf("labeler: unknown engine %q (want hsv|kmeans|gmm[:k])", spec)
	}
}

// Fingerprint returns a string that changes whenever the labeler would
// produce different output: the engine name plus its full configuration.
// Shard and model checkpoints mix it into their keys so a resume never
// silently continues with labels from a different engine.
func Fingerprint(l Labeler) string {
	if l == nil {
		l = PaperHSV()
	}
	return fmt.Sprintf("%s %+v", l.Name(), l)
}

// classOfCenter maps a cluster centroid (mean band vector, each channel
// in [0,1]) to a sea-ice class through the paper's brightness bands: the
// centroid's HSV value channel is its brightest band (V = max(R,G,B)),
// classified water ≤ 30, thin ice 31–204, thick ice ≥ 205 on the 8-bit
// scale. Cluster counts above three simply fold multiple clusters into
// the same class.
func classOfCenter(c [3]float64) raster.Class {
	v := 255 * max(c[0], max(c[1], c[2]))
	switch {
	case v < 30.5:
		return raster.ClassWater
	case v < 204.5:
		return raster.ClassThinIce
	default:
		return raster.ClassThickIce
	}
}

// bandVec returns pixel i of img as a band vector scaled to [0,1] — the
// feature space both clustering engines operate in.
func bandVec(img *raster.RGB, i int) [3]float64 {
	return [3]float64{
		float64(img.Pix[3*i]) / 255,
		float64(img.Pix[3*i+1]) / 255,
		float64(img.Pix[3*i+2]) / 255,
	}
}

// chunkPix is the fixed pixel-chunk size for parallel passes whose
// results are reduced: boundaries depend only on the image size — never
// on the worker count — so chunk-ordered reductions are byte-identical
// on any pool.
const chunkPix = 8192

// chunks returns the fixed-size chunk count covering n pixels.
func chunks(n int) int { return (n + chunkPix - 1) / chunkPix }

// chunkBounds returns chunk ci's pixel range [lo, hi).
func chunkBounds(n, ci int) (lo, hi int) {
	lo = ci * chunkPix
	hi = lo + chunkPix
	if hi > n {
		hi = n
	}
	return lo, hi
}
