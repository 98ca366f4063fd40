package telemetry

import (
	"slices"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("bebop_test_total", "a counter")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := r.Counter("bebop_test_total", "dup"); again != c {
		t.Fatal("re-registration must return the same counter")
	}

	g := r.Gauge("bebop_test_depth", "a gauge")
	g.Add(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("bebop_test_seconds", "a histogram", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if got, want := h.Sum(), 56.05; got != want {
		t.Fatalf("sum = %g, want %g", got, want)
	}

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE bebop_test_seconds histogram",
		`bebop_test_seconds_bucket{le="0.1"} 1`,
		`bebop_test_seconds_bucket{le="1"} 3`,
		`bebop_test_seconds_bucket{le="10"} 4`,
		`bebop_test_seconds_bucket{le="+Inf"} 5`,
		"bebop_test_seconds_sum 56.05",
		"bebop_test_seconds_count 5",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestWritePrometheusFamilies(t *testing.T) {
	r := NewRegistry()
	r.Counter(`bebop_jobs_total{result="hit"}`, "jobs by result").Add(3)
	r.Counter(`bebop_jobs_total{result="miss"}`, "jobs by result").Add(1)
	r.Gauge("bebop_busy", "busy workers").Add(2)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()

	if strings.Count(out, "# TYPE bebop_jobs_total counter") != 1 {
		t.Errorf("labeled series must share one TYPE header:\n%s", out)
	}
	if strings.Count(out, "# HELP bebop_jobs_total jobs by result") != 1 {
		t.Errorf("labeled series must share one HELP header:\n%s", out)
	}
	for _, want := range []string{
		`bebop_jobs_total{result="hit"} 3`,
		`bebop_jobs_total{result="miss"} 1`,
		"bebop_busy 2",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}

	// Every non-comment line must be `name[{labels}] value`, and the
	// series come out sorted by name whatever order they were registered
	// in (the registry is a map).
	var names []string
	for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Errorf("malformed exposition line %q", line)
			continue
		}
		names = append(names, fields[0])
	}
	if !slices.IsSorted(names) {
		t.Errorf("series not sorted by name: %q", names)
	}
}

// TestIncrementPathAllocs pins the tentpole property: the increment
// path allocates nothing.
func TestIncrementPathAllocs(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("bebop_alloc_total", "")
	g := r.Gauge("bebop_alloc_depth", "")
	h := r.Histogram("bebop_alloc_seconds", "", []float64{0.001, 0.01, 0.1, 1})

	if n := testing.AllocsPerRun(1000, func() { c.Add(1) }); n != 0 {
		t.Errorf("Counter.Add allocates %v per op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { g.Add(1) }); n != 0 {
		t.Errorf("Gauge.Add allocates %v per op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { h.Observe(0.05) }); n != 0 {
		t.Errorf("Histogram.Observe allocates %v per op, want 0", n)
	}
}

// TestRegistryRace hammers registration, increments and reads from many
// goroutines; run under -race in CI.
func TestRegistryRace(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("bebop_race_total", "")
			g := r.Gauge("bebop_race_depth", "")
			h := r.Histogram("bebop_race_seconds", "", []float64{0.5})
			for j := 0; j < 1000; j++ {
				c.Inc()
				g.Add(1)
				g.Add(-1)
				h.Observe(float64(j))
			}
		}()
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				var sb strings.Builder
				if err := r.WritePrometheus(&sb); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("bebop_race_total", "").Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
}

func BenchmarkCounterAdd(b *testing.B) {
	c := NewRegistry().Counter("bebop_bench_total", "")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("bebop_bench_seconds", "", []float64{0.001, 0.01, 0.1, 1, 10})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(0.05)
	}
}

func BenchmarkCounterAddParallel(b *testing.B) {
	c := NewRegistry().Counter("bebop_bench_par_total", "")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Add(1)
		}
	})
}
