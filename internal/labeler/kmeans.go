package labeler

import (
	"fmt"
	"math"

	"seaice/internal/noise"
	"seaice/internal/pool"
	"seaice/internal/raster"
)

// KMeans labels by mini-batch K-means clustering (Sculley's web-scale
// variant) over per-pixel band vectors, with clusters mapped to classes
// by centroid brightness. Fitting is a serial recurrence over RNG-drawn
// mini-batches — deterministic in (image, config, Seed) by construction
// — and only the final full-image assignment pass fans out over
// pool.Shared(); each pixel's label depends on its own band vector
// alone, so the output is byte-identical at any worker count.
type KMeans struct {
	// K is the cluster count; 0 selects 8. The default deliberately
	// over-segments: clusters fold into the three classes by centroid
	// brightness, and finer clusters place the folded class boundaries
	// much closer to the HSV thresholds than one cluster per class
	// would (Euclidean midpoints between 3 centroids land far from the
	// paper's V-band edges; with 8 they align to ≥99% pixel agreement
	// on clean scenes — the floor the package tests assert).
	K int
	// Seed drives the deterministic RNG used for initialization and
	// mini-batch sampling.
	Seed uint64
	// Batch is the mini-batch size; 0 selects 1024.
	Batch int
	// Iters is the number of mini-batch update steps; 0 selects 60.
	Iters int
}

// kmeansDefaults resolves zero fields to their defaults.
func (k KMeans) kmeansDefaults() KMeans {
	if k.K == 0 {
		k.K = 8
	}
	if k.Batch == 0 {
		k.Batch = 1024
	}
	if k.Iters == 0 {
		k.Iters = 60
	}
	return k
}

// Name implements Labeler.
func (k KMeans) Name() string { return fmt.Sprintf("kmeans:%d", k.kmeansDefaults().K) }

// Label implements Labeler.
func (k KMeans) Label(img *raster.RGB) (*raster.Labels, error) {
	n := img.W * img.H
	if n == 0 {
		return nil, fmt.Errorf("labeler: kmeans on empty %dx%d image", img.W, img.H)
	}
	k = k.kmeansDefaults()
	if k.K < 1 || k.K > 256 {
		return nil, fmt.Errorf("labeler: kmeans cluster count %d outside [1,256]", k.K)
	}
	centers := k.fit(img)
	classes := make([]raster.Class, len(centers))
	for c := range centers {
		classes[c] = classOfCenter(centers[c])
	}

	out := raster.NewLabels(img.W, img.H)
	err := pool.Shared().Map(chunks(n), func(ci int) error {
		lo, hi := chunkBounds(n, ci)
		for i := lo; i < hi; i++ {
			out.Pix[i] = classes[nearest(centers, bandVec(img, i))]
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// fit runs k-means++ seeding over an RNG-drawn candidate pool followed
// by Iters mini-batch update steps with per-center decaying learning
// rates. Everything here is a serial recurrence on one RNG stream, so
// the fitted centers never depend on scheduling. Exposed within the
// package so the GMM engine can reuse it for mean initialization.
func (k KMeans) fit(img *raster.RGB) [][3]float64 {
	n := img.W * img.H
	rng := noise.NewRNG(k.Seed, 0x6b6d65616e73) // stream "kmeans"

	// k-means++ over a bounded candidate pool: spread the initial
	// centers by sampling proportionally to squared distance from the
	// nearest center chosen so far.
	m := n
	if m > 2048 {
		m = 2048
	}
	cand := make([]int, m)
	for j := range cand {
		cand[j] = rng.Intn(n)
	}
	centers := make([][3]float64, k.K)
	centers[0] = bandVec(img, cand[rng.Intn(m)])
	d2 := make([]float64, m)
	for j := range d2 {
		d2[j] = dist2(bandVec(img, cand[j]), centers[0])
	}
	for c := 1; c < k.K; c++ {
		total := 0.0
		for _, d := range d2 {
			total += d
		}
		if total <= 0 {
			// Degenerate pool (e.g. constant image): fall back to
			// uniform draws; duplicate centers are harmless.
			centers[c] = bandVec(img, cand[rng.Intn(m)])
		} else {
			r := rng.Float64() * total
			pick := m - 1
			for j, d := range d2 {
				if r < d {
					pick = j
					break
				}
				r -= d
			}
			centers[c] = bandVec(img, cand[pick])
		}
		for j := range d2 {
			if d := dist2(bandVec(img, cand[j]), centers[c]); d < d2[j] {
				d2[j] = d
			}
		}
	}

	// Mini-batch updates: each drawn pixel pulls its nearest center
	// toward itself with a 1/count learning rate (Sculley 2010).
	counts := make([]float64, k.K)
	for it := 0; it < k.Iters; it++ {
		for b := 0; b < k.Batch; b++ {
			x := bandVec(img, rng.Intn(n))
			c := nearest(centers, x)
			counts[c]++
			eta := 1 / counts[c]
			for d := 0; d < 3; d++ {
				centers[c][d] += float64(eta * (x[d] - centers[c][d]))
			}
		}
	}
	return centers
}

// nearest returns the index of the center closest to x; ties resolve to
// the lowest index, keeping assignment deterministic.
func nearest(centers [][3]float64, x [3]float64) int {
	best, bestD := 0, math.Inf(1)
	for c := range centers {
		if d := dist2(centers[c], x); d < bestD {
			best, bestD = c, d
		}
	}
	return best
}

// dist2 is squared Euclidean distance in band space.
func dist2(a, b [3]float64) float64 {
	dr := a[0] - b[0]
	dg := a[1] - b[1]
	db := a[2] - b[2]
	return float64(dr*dr) + float64(dg*dg) + float64(db*db)
}
