package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileNeedsTenSamplesBeyondIt(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{
		{99, 0.9, false},
		{100, 0.9, true},
		{19, 0.5, false},
		{20, 0.5, true},
		{999, 0.99, false},
		{1000, 0.99, true},
	} {
		if got := percentileAllowed(c.n, c.q); got != c.want {
			t.Errorf("percentileAllowed(%d, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
}

// TestLoopMetricsOmitP90BelowHundredOps checks that a run with too few
// successful ops reports no p90, and that failed ops count against the
// attempted ones without contributing latency samples.
func TestLoopMetricsOmitP90BelowHundredOps(t *testing.T) {
	results := func(ok, failed int) []opResult {
		var rs []opResult
		for i := 0; i < ok; i++ {
			rs = append(rs, opResult{lat: time.Duration(i+1) * time.Millisecond, insts: 1000, ok: true})
		}
		for i := 0; i < failed; i++ {
			rs = append(rs, opResult{why: "mismatch"})
		}
		return rs
	}
	has := func(o *outcome, name string) bool {
		for _, m := range o.metrics {
			if m.Name == name {
				return true
			}
		}
		return false
	}

	var o outcome
	o.addLoopMetrics("", results(99, 5), time.Second, true)
	if has(&o, "latency_p90_ms") {
		t.Error("p90 reported from 99 samples")
	}
	if o.attempted != 104 || o.failed != 5 {
		t.Errorf("attempted/failed = %d/%d, want 104/5", o.attempted, o.failed)
	}

	o = outcome{}
	o.addLoopMetrics("", results(100, 0), time.Second, true)
	if !has(&o, "latency_p90_ms") {
		t.Error("p90 missing with 100 samples")
	}
	for _, m := range o.metrics {
		if m.Name == "throughput_kips" && math.Abs(m.Value-100) > 1e-9 {
			t.Errorf("throughput = %v kinst/s, want 100", m.Value)
		}
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// Values from Python's statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 8.25},
		{[]float64{3.1, 0.5, 2.2, 9.9, 4.4, 7.0, 1.1}, 1.1, 7.0},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-5.5/5.5) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
}

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := quantile(xs, 0.9); math.Abs(got-3.7) > 1e-12 {
		t.Errorf("p90 = %v, want 3.7", got)
	}
	if xs[0] != 4 {
		t.Error("quantile sorted its input in place")
	}
}

func TestOpOrderIsSeededPermutations(t *testing.T) {
	a, b := opOrder(7, 12, 30), opOrder(7, 12, 30)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed, different op order")
		}
	}
	seen := map[int]bool{}
	for _, v := range a[:12] {
		seen[v] = true
	}
	if len(seen) != 12 {
		t.Errorf("first 12 ops cover %d specs, want all 12", len(seen))
	}
	c := opOrder(8, 12, 30)
	same := true
	for i := range a {
		same = same && a[i] == c[i]
	}
	if same {
		t.Error("different seeds gave the same op order")
	}
}
