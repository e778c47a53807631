package labeler

import (
	"fmt"
	"math"

	"seaice/internal/pool"
	"seaice/internal/raster"
	"seaice/internal/tensor"
)

// GMM labels by fitting a K-component Gaussian mixture with diagonal
// covariances to the per-pixel band vectors via EM, then assigning each
// pixel its maximum-posterior component; components map to classes by
// mean brightness.
//
// The E-step routes through the tensor GEMM engine: for diagonal
// covariances the component log-densities decompose as
//
//	log N(x|μ_k, σ²_k) = Σ_d x²_d·A[d,k] + Σ_d x_d·B[d,k] + c_k
//	A[d,k] = −1/(2σ²_{k,d})   B[d,k] = μ_{k,d}/σ²_{k,d}
//
// so one EM iteration is two (n×3)·(3×K) matrix products — X²·A and
// X·B — evaluated by tensor.MatMulInto, whose output is bit-identical
// at any worker count. The responsibility sums of the M-step accumulate
// fixed-size chunk partials reduced in chunk order, so the whole fit —
// and therefore the label map — is byte-identical on any pool.
type GMM struct {
	// K is the component count; 0 selects 3, one per class.
	K int
	// Seed drives the deterministic RNG of the K-means initialization.
	Seed uint64
	// Iters is the number of EM iterations; 0 selects 15.
	Iters int
}

// gmmDefaults resolves zero fields to their defaults.
func (g GMM) gmmDefaults() GMM {
	if g.K == 0 {
		g.K = 3
	}
	if g.Iters == 0 {
		g.Iters = 15
	}
	return g
}

// Name implements Labeler.
func (g GMM) Name() string { return fmt.Sprintf("gmm:%d", g.gmmDefaults().K) }

// sigmaFloor keeps variances strictly positive: a component collapsing
// onto identical pixels would otherwise drive its density to a delta.
const sigmaFloor = 1e-6

// gmmPartial holds one pixel chunk's contribution to the M-step sums.
type gmmPartial struct {
	n      []float64 // Σ_i r_ik                 (len K)
	sum    []float64 // Σ_i r_ik·x_id            (len K*3)
	sumSq  []float64 // Σ_i r_ik·x²_id           (len K*3)
	loglik float64   // Σ_i log Σ_k π_k N(x_i|k)
}

// Label implements Labeler.
func (g GMM) Label(img *raster.RGB) (*raster.Labels, error) {
	n := img.W * img.H
	if n == 0 {
		return nil, fmt.Errorf("labeler: gmm on empty %dx%d image", img.W, img.H)
	}
	g = g.gmmDefaults()
	if g.K < 1 || g.K > 256 {
		return nil, fmt.Errorf("labeler: gmm component count %d outside [1,256]", g.K)
	}
	kk := g.K

	// Feature matrices shared by every iteration: X holds the band
	// vectors, Xsq their elementwise squares.
	X := tensor.New[float64](n, 3)
	Xsq := tensor.New[float64](n, 3)
	if err := pool.Shared().Map(chunks(n), func(ci int) error {
		lo, hi := chunkBounds(n, ci)
		for i := lo; i < hi; i++ {
			v := bandVec(img, i)
			for d := 0; d < 3; d++ {
				X.Data[3*i+d] = v[d]
				Xsq.Data[3*i+d] = v[d] * v[d]
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}

	// Initialization: means from a short deterministic K-means fit,
	// uniform weights, and per-dimension global variance — all serial or
	// reused from the K-means recurrence, so the starting point is
	// scheduling-independent.
	mu := KMeans{K: kk, Seed: g.Seed, Iters: 20}.kmeansDefaults().fit(img)
	sigma2 := make([][3]float64, kk)
	globalVar := bandVariance(X.Data, n)
	for c := range sigma2 {
		sigma2[c] = globalVar
	}
	pi := make([]float64, kk)
	for c := range pi {
		pi[c] = 1 / float64(kk)
	}

	// Per-iteration work areas. G1/G2 hold the two GEMM outputs; the
	// partials are indexed by fixed chunk and reduced in chunk order.
	A := tensor.New[float64](3, kk)
	B := tensor.New[float64](3, kk)
	ck := make([]float64, kk)
	G1 := tensor.New[float64](n, kk)
	G2 := tensor.New[float64](n, kk)
	nc := chunks(n)
	partials := make([]gmmPartial, nc)
	for ci := range partials {
		partials[ci] = gmmPartial{
			n:     make([]float64, kk),
			sum:   make([]float64, kk*3),
			sumSq: make([]float64, kk*3),
		}
	}

	for iter := 0; iter < g.Iters; iter++ {
		g.fillCoeffs(A, B, ck, mu, sigma2, pi)
		tensor.MatMulInto(G1, Xsq, A)
		tensor.MatMulInto(G2, X, B)

		// E-step responsibilities + M-step partial sums, one fixed
		// chunk per task.
		if err := pool.Shared().Map(nc, func(ci int) error {
			p := &partials[ci]
			for c := range p.n {
				p.n[c] = 0
			}
			for c := range p.sum {
				p.sum[c] = 0
				p.sumSq[c] = 0
			}
			p.loglik = 0
			resp := make([]float64, kk)
			lo, hi := chunkBounds(n, ci)
			for i := lo; i < hi; i++ {
				lse := respRow(resp, G1.Data[i*kk:(i+1)*kk], G2.Data[i*kk:(i+1)*kk], ck)
				p.loglik += lse
				for c := 0; c < kk; c++ {
					r := resp[c]
					p.n[c] += r
					for d := 0; d < 3; d++ {
						p.sum[c*3+d] += float64(r * X.Data[3*i+d])
						p.sumSq[c*3+d] += float64(r * Xsq.Data[3*i+d])
					}
				}
			}
			return nil
		}); err != nil {
			return nil, err
		}

		// Chunk-ordered reduction, then the closed-form M-step update.
		Nk := make([]float64, kk)
		sum := make([]float64, kk*3)
		sumSq := make([]float64, kk*3)
		for ci := range partials {
			for c := 0; c < kk; c++ {
				Nk[c] += partials[ci].n[c]
			}
			for j := range sum {
				sum[j] += partials[ci].sum[j]
				sumSq[j] += partials[ci].sumSq[j]
			}
		}
		for c := 0; c < kk; c++ {
			if Nk[c] < 1e-9 {
				// Starved component: keep its parameters rather than
				// dividing by ~0; it simply stops claiming pixels.
				continue
			}
			pi[c] = Nk[c] / float64(n)
			for d := 0; d < 3; d++ {
				m := sum[c*3+d] / Nk[c]
				mu[c][d] = m
				v := sumSq[c*3+d]/Nk[c] - float64(m*m)
				if v < sigmaFloor {
					v = sigmaFloor
				}
				sigma2[c][d] = v
			}
		}
	}

	// Final assignment: maximum-posterior component per pixel (ties to
	// the lowest index), folded to classes by component mean brightness.
	g.fillCoeffs(A, B, ck, mu, sigma2, pi)
	tensor.MatMulInto(G1, Xsq, A)
	tensor.MatMulInto(G2, X, B)
	classes := make([]raster.Class, kk)
	for c := range classes {
		classes[c] = classOfCenter(mu[c])
	}
	out := raster.NewLabels(img.W, img.H)
	if err := pool.Shared().Map(nc, func(ci int) error {
		lo, hi := chunkBounds(n, ci)
		for i := lo; i < hi; i++ {
			g1 := G1.Data[i*kk : (i+1)*kk]
			g2 := G2.Data[i*kk : (i+1)*kk]
			best, bestL := 0, math.Inf(-1)
			for c := 0; c < kk; c++ {
				if l := g1[c] + g2[c] + ck[c]; l > bestL {
					best, bestL = c, l
				}
			}
			out.Pix[i] = classes[best]
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// fillCoeffs packs the current parameters into the GEMM operands: A and
// B are the 3×K quadratic and linear coefficient matrices of the
// diagonal-Gaussian log-density, ck the per-component constant including
// the mixing weight, so that log π_k N(x|k) = (x²·A + x·B)[k] + ck[k].
func (g GMM) fillCoeffs(A, B *tensor.Tensor[float64], ck []float64, mu, sigma2 [][3]float64, pi []float64) {
	kk := len(ck)
	for c := 0; c < kk; c++ {
		ck[c] = math.Log(pi[c])
		for d := 0; d < 3; d++ {
			s2 := sigma2[c][d]
			A.Data[d*kk+c] = -0.5 / s2
			B.Data[d*kk+c] = mu[c][d] / s2
			ck[c] += float64(-0.5*math.Log(2*math.Pi*s2)) - 0.5*mu[c][d]*mu[c][d]/s2
		}
	}
}

// respRow turns one pixel's GEMM outputs into normalized
// responsibilities via a log-sum-exp, returning the pixel's
// log-likelihood contribution.
func respRow(resp, g1, g2, ck []float64) float64 {
	m := math.Inf(-1)
	for c := range resp {
		resp[c] = g1[c] + g2[c] + ck[c]
		if resp[c] > m {
			m = resp[c]
		}
	}
	var z float64
	for c := range resp {
		resp[c] = math.Exp(resp[c] - m)
		z += resp[c]
	}
	for c := range resp {
		resp[c] /= z
	}
	return m + math.Log(z)
}

// bandVariance returns the per-dimension variance of the n band vectors
// in x (row-major n×3), computed serially — 3n flops, far below any
// parallel threshold — so initialization is trivially deterministic.
func bandVariance(x []float64, n int) [3]float64 {
	var mean, sq [3]float64
	for i := 0; i < n; i++ {
		for d := 0; d < 3; d++ {
			mean[d] += x[3*i+d]
			sq[d] += float64(x[3*i+d] * x[3*i+d])
		}
	}
	var out [3]float64
	for d := 0; d < 3; d++ {
		m := mean[d] / float64(n)
		v := sq[d]/float64(n) - float64(m*m)
		if v < sigmaFloor {
			v = sigmaFloor
		}
		out[d] = v
	}
	return out
}
