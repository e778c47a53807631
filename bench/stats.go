package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is the number of samples that must lie beyond a reported tail
// percentile: with fewer, the percentile is decided by a handful of
// outliers and repeats poorly between runs.
const minBeyond = 10

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle of xs (mean of the two middle values for an
// even count), or NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentile returns the nearest-rank q-quantile (0.5 < q < 1) of xs
// and refuses to report one that has fewer than minBeyond samples above it.
func tailPercentile(xs []float64, q float64) (float64, error) {
	if q <= 0.5 || q >= 1 {
		return 0, fmt.Errorf("tail percentile %.3f outside (0.5, 1)", q)
	}
	n := len(xs)
	rank := int(math.Ceil(q * float64(n)))
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", q*100, n, beyond, minBeyond)
	}
	return sorted(xs)[rank-1], nil
}

// quartiles returns the first and third quartile of xs by the same
// exclusive method as Python's statistics.quantiles(xs, n=4), which the
// acceptance check uses; it needs at least two samples.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		j = min(max(j, 1), n-1)
		delta := pos - float64(j)
		return s[j-1] + delta*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// mean returns the arithmetic mean of xs, 0 for none.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// logSlope is the least-squares slope of ln y against ln x: the exponent s
// of y ∝ x^s that the pairs themselves show. 0 when x does not vary.
func logSlope(xs, ys []float64) float64 {
	lx, ly := make([]float64, len(xs)), make([]float64, len(ys))
	for i := range xs {
		lx[i], ly[i] = math.Log(xs[i]), math.Log(ys[i])
	}
	mx, my := mean(lx), mean(ly)
	var sxx, sxy float64
	for i := range lx {
		sxx += (lx[i] - mx) * (lx[i] - mx)
		sxy += (lx[i] - mx) * (ly[i] - my)
	}
	if sxx == 0 {
		return 0
	}
	return sxy / sxx
}
