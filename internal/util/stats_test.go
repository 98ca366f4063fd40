package util

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestGeometricMeanSimple(t *testing.T) {
	if g := GeometricMean([]float64{2, 8}); !almostEq(g, 4) {
		t.Fatalf("gmean(2,8) = %v, want 4", g)
	}
}

func TestGeometricMeanSingleton(t *testing.T) {
	if g := GeometricMean([]float64{3.7}); !almostEq(g, 3.7) {
		t.Fatalf("gmean(3.7) = %v", g)
	}
}

func TestGeometricMeanEmpty(t *testing.T) {
	if g := GeometricMean(nil); g != 0 {
		t.Fatalf("gmean(empty) = %v, want 0", g)
	}
}

func TestGeometricMeanPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("gmean of 0 did not panic")
		}
	}()
	GeometricMean([]float64{1, 0})
}

func TestGeometricMeanAtMostArithmetic(t *testing.T) {
	// AM-GM inequality as a property test.
	f := func(a, b, c uint16) bool {
		xs := []float64{float64(a%100) + 1, float64(b%100) + 1, float64(c%100) + 1}
		am := (xs[0] + xs[1] + xs[2]) / 3
		return GeometricMean(xs) <= am+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSummarizeOrdering(t *testing.T) {
	s := Summarize([]float64{0.9, 1.0, 1.1, 1.2, 1.5})
	if s.Min != 0.9 || s.Max != 1.5 {
		t.Fatalf("min/max wrong: %+v", s)
	}
	if !(s.Min <= s.Q1 && s.Q1 <= s.Median && s.Median <= s.Q3 && s.Q3 <= s.Max) {
		t.Fatalf("summary not ordered: %+v", s)
	}
	if s.N != 5 {
		t.Fatalf("N = %d", s.N)
	}
}

func TestSummarizeMedianOdd(t *testing.T) {
	s := Summarize([]float64{3, 1, 2})
	if !almostEq(s.Median, 2) {
		t.Fatalf("median = %v, want 2", s.Median)
	}
}

func TestSummarizeMedianEven(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4})
	if !almostEq(s.Median, 2.5) {
		t.Fatalf("median = %v, want 2.5", s.Median)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s := Summarize([]float64{1.3})
	if s.Min != 1.3 || s.Max != 1.3 || s.Median != 1.3 || s.Q1 != 1.3 || s.Q3 != 1.3 {
		t.Fatalf("singleton summary wrong: %+v", s)
	}
}

func TestSummarizeDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	Summarize(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input mutated: %v", xs)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.GMean != 0 {
		t.Fatalf("empty summary: %+v", s)
	}
}

func TestQuantileProperty(t *testing.T) {
	// Property: quantiles lie within [min, max] and are monotone in q.
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, math.Abs(v)+1)
			}
		}
		if len(xs) == 0 {
			return true
		}
		s := Summarize(xs)
		return s.Min <= s.Q1 && s.Q1 <= s.Median && s.Median <= s.Q3 && s.Q3 <= s.Max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBitsToKB(t *testing.T) {
	if got := BitsToKB(8 * 1024); !almostEq(got, 1.0) {
		t.Fatalf("BitsToKB(8Ki) = %v", got)
	}
}

func TestSummaryString(t *testing.T) {
	s := Summarize([]float64{1, 2})
	if s.String() == "" {
		t.Fatal("empty String()")
	}
}

// bruteMeanVar is the two-pass textbook reference Welford is checked
// against: exact mean, then the unbiased sample variance.
func bruteMeanVar(xs []float64) (mean, variance float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	if len(xs) < 2 {
		return mean, 0
	}
	for _, x := range xs {
		variance += (x - mean) * (x - mean)
	}
	return mean, variance / float64(len(xs)-1)
}

func TestWelfordMatchesBruteForce(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				// Keep magnitudes in an IPC-like range so the brute-force
				// reference itself stays exact enough to compare against.
				xs = append(xs, math.Mod(v, 16))
			}
		}
		var w Welford
		for _, x := range xs {
			w.Add(x)
		}
		mean, variance := bruteMeanVar(xs)
		if w.n != int64(len(xs)) {
			return false
		}
		return math.Abs(w.Mean()-mean) < 1e-9 && math.Abs(w.Variance()-variance) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWelfordNoNaN(t *testing.T) {
	// n = 0 and n = 1 must report zeros, never NaN: these values land
	// in JSON reports where NaN is unrepresentable.
	var w Welford
	for i := 0; i < 2; i++ {
		for _, v := range []float64{w.Mean(), w.Variance(), w.StdDev(), w.CI95()} {
			if math.IsNaN(v) {
				t.Fatalf("NaN at n=%d", w.n)
			}
		}
		if w.Variance() != 0 || w.CI95() != 0 {
			t.Fatalf("n=%d: variance=%v ci=%v, want 0", w.n, w.Variance(), w.CI95())
		}
		w.Add(1.25)
	}
}

func TestWelfordConstantStream(t *testing.T) {
	var w Welford
	for i := 0; i < 1000; i++ {
		w.Add(3.14159)
	}
	if !almostEq(w.Mean(), 3.14159) {
		t.Fatalf("mean = %v", w.Mean())
	}
	if w.Variance() < 0 || w.Variance() > 1e-12 {
		t.Fatalf("variance of constant stream = %v", w.Variance())
	}
}

func TestWelfordCI95KnownValue(t *testing.T) {
	// n=4, samples {1,2,3,4}: mean 2.5, s^2 = 5/3, df=3 → t = 3.182,
	// CI = 3.182 * sqrt((5/3)/4) ≈ 2.0540.
	var w Welford
	for _, x := range []float64{1, 2, 3, 4} {
		w.Add(x)
	}
	want := 3.182 * math.Sqrt((5.0/3.0)/4.0)
	if math.Abs(w.CI95()-want) > 1e-9 {
		t.Fatalf("CI95 = %v, want %v", w.CI95(), want)
	}
}

func TestStudentT95Properties(t *testing.T) {
	// Monotone decreasing in df, bounded below by the normal quantile.
	prev := math.Inf(1)
	for df := int64(1); df <= 2000; df++ {
		v := StudentT95(df)
		if v > prev+1e-12 {
			t.Fatalf("t(df=%d) = %v rose above t(df=%d) = %v", df, v, df-1, prev)
		}
		if v < 1.959 {
			t.Fatalf("t(df=%d) = %v below normal quantile", df, v)
		}
		prev = v
	}
	if got := StudentT95(0); got != StudentT95(1) {
		t.Fatalf("df<1 should clamp to df=1, got %v", got)
	}
	if got := StudentT95(1); !almostEq(got, 12.706) {
		t.Fatalf("t(1) = %v", got)
	}
}

func TestWelfordCI95ShrinksWithN(t *testing.T) {
	// Property: for a fixed-variance stream, the CI half-width shrinks
	// as more samples arrive (t falls and sqrt(n) grows).
	var w Welford
	alternate := []float64{1, 2}
	var prev float64
	for i := 0; i < 64; i++ {
		w.Add(alternate[i%2])
		ci := w.CI95()
		if i >= 3 && i%2 == 1 && ci >= prev {
			t.Fatalf("CI95 did not shrink at n=%d: %v >= %v", w.n, ci, prev)
		}
		if i%2 == 1 {
			prev = ci
		}
	}
}
