// Package telemetry is the observability core for the simulator: an
// allocation-free-on-the-hot-path metrics registry (atomic counters,
// gauges and fixed-bucket histograms exposed in Prometheus text format)
// plus lightweight per-run tracing (trace.go).
//
// Design rules, in priority order:
//
//  1. The increment path takes no locks and performs no allocations.
//     Counter.Add / Gauge.Set / Histogram.Observe are single atomic
//     operations (Observe adds one CAS loop for the running sum).
//     Instrumented packages hold their metrics in package-level vars so
//     the registry lookup happens once at init, never per event.
//  2. Registration (get-or-create) takes a mutex; it happens at package
//     init or per run, never per instruction.
//  3. Reads are snapshots: WritePrometheus observes each atomic
//     independently. Totals may be torn across metrics (a scrape
//     can see N hits but N-1 lookups) — fine for monitoring, documented
//     here so nobody builds invariants on cross-metric consistency.
//
// Metric names follow Prometheus conventions: `bebop_<layer>_<what>_<unit>`
// with `_total` for counters. Labels are embedded in the registered name
// (`bebop_engine_jobs_total{result="hit"}`); the exposition writer groups
// series into families by the name up to `{` so each family gets one
// HELP/TYPE header.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter. Lock-free, allocation-free.
//
//bebop:hotpath
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc adds one.
//
//bebop:hotpath
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an instantaneous int64 value (queue depth, busy workers).
type Gauge struct {
	v atomic.Int64
}

// Add moves the gauge by delta (may be negative).
//
//bebop:hotpath
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket histogram. Bounds are upper bounds in
// ascending order; observations greater than the last bound land in the
// implicit +Inf bucket. Buckets are non-cumulative internally and
// cumulated at exposition time, per Prometheus convention.
type Histogram struct {
	bounds  []float64
	buckets []atomic.Uint64 // len(bounds)+1; last is +Inf
	count   atomic.Uint64
	sumBits atomic.Uint64 // float64 bits, CAS-updated
}

// Observe records one sample. Lock-free, allocation-free: a linear scan
// over the (small, fixed) bounds slice, two atomic adds and a CAS loop.
//
//bebop:hotpath
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Sum returns the running sum of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

type metric struct {
	name string // full series name, possibly with {labels}
	kind metricKind
	c    *Counter
	g    *Gauge
	h    *Histogram
}

// Registry holds named metrics. Get-or-create is mutex-guarded and
// idempotent: registering the same name twice returns the same metric,
// so per-run registration is safe. The zero value is unusable; use
// NewRegistry or the package-level Default.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*metric
	help    map[string]string // family name -> help text
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		metrics: make(map[string]*metric),
		help:    make(map[string]string),
	}
}

// Default is the process-wide registry. Instrumented packages register
// into it at init; bebop-serve exposes it at /metrics.
var Default = NewRegistry()

// family is the series name up to the label block: the unit Prometheus
// groups HELP/TYPE headers by.
func family(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

func (r *Registry) register(name, help string, kind metricKind) *metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		if m.kind != kind {
			panic(fmt.Sprintf("telemetry: %q re-registered with a different kind", name))
		}
		return m
	}
	m := &metric{name: name, kind: kind}
	switch kind {
	case kindCounter:
		m.c = &Counter{}
	case kindGauge:
		m.g = &Gauge{}
	}
	r.metrics[name] = m
	if fam := family(name); r.help[fam] == "" && help != "" {
		r.help[fam] = help
	}
	return m
}

// Counter returns the counter registered under name, creating it if
// needed. name may embed labels: `bebop_engine_jobs_total{result="hit"}`.
func (r *Registry) Counter(name, help string) *Counter {
	return r.register(name, help, kindCounter).c
}

// Gauge returns the gauge registered under name, creating it if needed.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.register(name, help, kindGauge).g
}

// Histogram returns the histogram registered under name, creating it
// with the given ascending upper bounds if needed. Bounds are fixed at
// first registration; later calls with the same name return the
// existing histogram regardless of bounds.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		if m.kind != kindHistogram {
			panic(fmt.Sprintf("telemetry: %q re-registered with a different kind", name))
		}
		return m.h
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("telemetry: %q histogram bounds not ascending", name))
		}
	}
	h := &Histogram{
		bounds:  append([]float64(nil), bounds...),
		buckets: make([]atomic.Uint64, len(bounds)+1),
	}
	r.metrics[name] = &metric{name: name, kind: kindHistogram, h: h}
	if fam := family(name); r.help[fam] == "" && help != "" {
		r.help[fam] = help
	}
	return h
}

// WritePrometheus writes every series in the Prometheus text exposition
// format (version 0.0.4): one `# HELP` / `# TYPE` header per family,
// series sorted by name, histograms expanded to cumulative `_bucket`
// series plus `_sum` and `_count`.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	list := make([]*metric, 0, len(r.metrics))
	for _, m := range r.metrics {
		list = append(list, m)
	}
	helps := make(map[string]string, len(r.help))
	for k, v := range r.help {
		helps[k] = v
	}
	r.mu.Unlock()

	sort.Slice(list, func(i, j int) bool { return list[i].name < list[j].name })

	var b strings.Builder
	lastFam := ""
	for _, m := range list {
		fam := family(m.name)
		if fam != lastFam {
			if help := helps[fam]; help != "" {
				fmt.Fprintf(&b, "# HELP %s %s\n", fam, help)
			}
			fmt.Fprintf(&b, "# TYPE %s %s\n", fam, typeName(m.kind))
			lastFam = fam
		}
		switch m.kind {
		case kindCounter:
			fmt.Fprintf(&b, "%s %d\n", m.name, m.c.Value())
		case kindGauge:
			fmt.Fprintf(&b, "%s %d\n", m.name, m.g.Value())
		case kindHistogram:
			writeHistogram(&b, m.name, m.h)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func typeName(k metricKind) string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// writeHistogram expands one histogram into cumulative buckets. Labeled
// histogram names would need the `le` label merged into an existing
// label block; the simulator only registers unlabeled histograms, so
// keep the writer simple and panic-free by treating the whole name as
// the family.
func writeHistogram(b *strings.Builder, name string, h *Histogram) {
	fam := family(name)
	cum := uint64(0)
	for i, bound := range h.bounds {
		cum += h.buckets[i].Load()
		fmt.Fprintf(b, "%s_bucket{le=%q} %d\n", fam, formatBound(bound), cum)
	}
	cum += h.buckets[len(h.bounds)].Load()
	fmt.Fprintf(b, "%s_bucket{le=\"+Inf\"} %d\n", fam, cum)
	fmt.Fprintf(b, "%s_sum %g\n", fam, h.Sum())
	fmt.Fprintf(b, "%s_count %d\n", fam, h.Count())
}

func formatBound(v float64) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%f", v), "0"), ".")
}
