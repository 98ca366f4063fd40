package util

import (
	"fmt"
	"math"
	"sort"
)

// GeometricMean returns the geometric mean of xs. It returns 0 for an empty
// slice and panics if any value is non-positive (speedups are ratios and
// must be positive).
func GeometricMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			panic(fmt.Sprintf("util: GeometricMean of non-positive value %g", x))
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// Summary is the [Min,Q1,Median,Q3,Max] box-plot summary plus the geometric
// mean, matching how the paper reports sweep results (gmean on top of a
// [Min,Max]/quartile box plot, Fig. 6 and Fig. 7).
type Summary struct {
	Min, Q1, Median, Q3, Max float64
	GMean                    float64
	N                        int
}

// Summarize computes the five-number summary and geometric mean of xs.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	return Summary{
		Min:    s[0],
		Q1:     quantile(s, 0.25),
		Median: quantile(s, 0.5),
		Q3:     quantile(s, 0.75),
		Max:    s[len(s)-1],
		GMean:  GeometricMean(xs),
		N:      len(xs),
	}
}

// quantile returns the q-quantile of sorted data using linear interpolation
// between closest ranks (the same method as numpy's default).
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// String renders the summary as a single human-readable line.
func (s Summary) String() string {
	return fmt.Sprintf("min=%.3f q1=%.3f med=%.3f q3=%.3f max=%.3f gmean=%.3f (n=%d)",
		s.Min, s.Q1, s.Median, s.Q3, s.Max, s.GMean, s.N)
}

// BitsToKB converts a storage size in bits to kilobytes.
func BitsToKB(bits int) float64 {
	return float64(bits) / 8 / 1024
}

// Welford accumulates a streaming mean and variance using Welford's
// online algorithm: one pass, no stored samples, numerically stable for
// the long per-interval IPC streams sampled simulation produces. The
// zero value is ready to use.
type Welford struct {
	n    int64
	mean float64
	m2   float64
}

// Add folds one observation into the accumulator.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// Mean returns the running mean (0 before any observation).
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the unbiased sample variance. With fewer than two
// observations the variance is undefined; 0 is returned instead of NaN
// so values flow into JSON reports unguarded.
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	v := w.m2 / float64(w.n-1)
	if v < 0 { // floating-point cancellation on near-constant streams
		return 0
	}
	return v
}

// StdDev returns the sample standard deviation (0 when n < 2).
func (w *Welford) StdDev() float64 {
	return math.Sqrt(w.Variance())
}

// CI95 returns the half-width of the two-sided 95% confidence interval
// for the mean, t_{0.975,n-1} * s/sqrt(n), using the Student-t critical
// value for the actual sample size. It returns 0 (never NaN) when n < 2.
func (w *Welford) CI95() float64 {
	if w.n < 2 {
		return 0
	}
	return StudentT95(w.n-1) * math.Sqrt(w.Variance()/float64(w.n))
}

// studentT95 holds two-sided 95% Student-t critical values for 1..30
// degrees of freedom (index df-1).
var studentT95 = [30]float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// StudentT95 returns the two-sided 95% Student-t critical value for df
// degrees of freedom: exact table values through df=30, interpolation
// through the common textbook anchors above that, and the normal 1.96
// asymptote beyond df=1000. df < 1 returns the df=1 value (the widest
// interval — the conservative choice for a degenerate input).
func StudentT95(df int64) float64 {
	if df < 1 {
		df = 1
	}
	if df <= 30 {
		return studentT95[df-1]
	}
	// Piecewise-linear in 1/df between table anchors: t(df) - 1.96 is
	// close to c/df in this regime, so interpolating in 1/df tracks the
	// true curve to ~1e-3 — far below sampling noise in any CI we report.
	anchors := []struct {
		df int64
		t  float64
	}{{30, 2.042}, {40, 2.021}, {60, 2.000}, {120, 1.980}, {1000, 1.962}}
	for i := 0; i+1 < len(anchors); i++ {
		lo, hi := anchors[i], anchors[i+1]
		if df <= hi.df {
			x := (1/float64(df) - 1/float64(hi.df)) / (1/float64(lo.df) - 1/float64(hi.df))
			return hi.t + x*(lo.t-hi.t)
		}
	}
	return 1.96
}
