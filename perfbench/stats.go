package main

import (
	"math"
	"sort"
)

// minTailSamples is how many samples must lie beyond a reported
// percentile: a tail figure resting on fewer is one slow op, not a tail.
const minTailSamples = 10

// percentileAllowed reports whether n samples carry the q-quantile
// (0 < q < 1): at least minTailSamples of them must lie beyond it, so
// p90 needs n ≥ 100.
func percentileAllowed(n int, q float64) bool {
	return float64(n)*(1-q) >= minTailSamples-1e-9
}

// quantile is the q-quantile of xs by linear interpolation between the
// closest ranks (the R-7 / NumPy default). xs need not be sorted; it is
// not modified. It returns 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// median is quantile(xs, 0.5).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(xs, n=4) does (its default "exclusive" method),
// which is the rule the steadiness check is judged by. It needs at least
// two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile range of xs as a share of its median.
func spread(xs []float64) float64 {
	m := median(xs)
	if len(xs) < 2 || m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}
