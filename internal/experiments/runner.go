// Package experiments reproduces every table and figure of the paper's
// evaluation (Section VI): each runner executes the required configuration
// sweep over the Table II workload suite and returns the same rows/series
// the paper reports. A figure lists its curves as (label, configuration
// factory) pairs. Simulations are scheduled through internal/engine, whose
// cache is keyed by the configuration's pipeline.Config.Name, so every
// configuration — a shared baseline (Baseline_6_60, Baseline_VP_6_60,
// EOLE_4_60) or a BeBoP geometry that several figures sweep — simulates
// once per session: across experiments and, for the serving front-end,
// across requests.
package experiments

import (
	"context"
	"fmt"

	"bebop/internal/core"
	"bebop/internal/engine"
	"bebop/internal/pipeline"
	"bebop/internal/util"
	"bebop/internal/workload"
)

// Options controls an experiment session.
type Options struct {
	// Insts is the dynamic instruction budget per workload.
	Insts int64
	// Workloads selects benchmark names; nil runs the whole Catalog.
	Workloads []string
	// Catalog names the available workload sources — synthetic profiles,
	// recorded traces, or any mix. Nil selects the 36 Table II profiles
	// (workload.DefaultCatalog).
	Catalog *workload.Catalog
	// Parallel bounds concurrent simulations (0 = GOMAXPROCS).
	Parallel int
	// OnProgress, when set, receives one engine event per completed
	// simulation.
	OnProgress func(engine.Event)
}

// DefaultOptions runs the full suite at 100K instructions per workload, a
// laptop-scale budget that keeps predictor warmup meaningful.
func DefaultOptions() Options {
	return Options{Insts: 100_000}
}

// Runner executes experiments on top of a shared engine. Scheduling
// failures are recorded on the Runner, for Report to return, rather
// than returned by every figure method, so a Runner is NOT safe for
// concurrent use by multiple goroutines: derive one view per
// goroutine/request with WithContext or WithWorkloads — the underlying
// engine and its result cache are shared and fully concurrent.
type Runner struct {
	opts Options
	eng  *engine.Engine[pipeline.Result]
	ctx  context.Context
	err  error
}

// NewRunner builds a Runner with a fresh engine.
func NewRunner(opts Options) *Runner {
	if opts.Insts <= 0 {
		opts.Insts = DefaultOptions().Insts
	}
	if opts.Catalog == nil {
		opts.Catalog = workload.DefaultCatalog()
	}
	return &Runner{
		opts: opts,
		ctx:  context.Background(),
		eng: engine.New[pipeline.Result](engine.Options{
			Workers:    opts.Parallel,
			OnProgress: opts.OnProgress,
		}),
	}
}

// WithContext returns a Runner bound to ctx that shares this Runner's
// engine and cache. Cancellation and errors stay scoped to the copy.
func (r *Runner) WithContext(ctx context.Context) *Runner {
	return &Runner{opts: r.opts, eng: r.eng, ctx: ctx}
}

// WithWorkloads returns a Runner restricted to the named benchmarks that
// shares this Runner's engine and cache (safe: results are cached per
// (configuration name, benchmark), independent of the selection).
func (r *Runner) WithWorkloads(names []string) *Runner {
	cp := *r
	cp.opts.Workloads = names
	cp.err = nil
	return &cp
}

// Engine exposes the underlying engine (cache statistics, worker count).
func (r *Runner) Engine() *engine.Engine[pipeline.Result] { return r.eng }

// Workloads returns the selected benchmark names in catalog order
// (Table II order for the default catalog, traces after).
func (r *Runner) Workloads() []string {
	if r.opts.Workloads != nil {
		return r.opts.Workloads
	}
	return r.opts.Catalog.Names()
}

// Results runs (or returns cached) simulations of every selected workload
// under the configuration mk builds, cached by the configuration's name.
// On cancellation it records the error (Report returns it) and returns
// the partial results; downstream speedup math skips missing benchmarks.
func (r *Runner) Results(mk core.ConfigFactory) map[string]pipeline.Result {
	key := mk().Name
	names := r.Workloads()
	jobs := make([]engine.Job[pipeline.Result], len(names))
	for i, name := range names {
		bench := name
		jobs[i] = engine.Job[pipeline.Result]{
			Key:   key,
			Bench: bench,
			Run: func(ctx context.Context) (pipeline.Result, error) {
				src, ok := r.opts.Catalog.Lookup(bench)
				if !ok {
					return pipeline.Result{}, fmt.Errorf("experiments: %w",
						util.UnknownName("workload", bench, r.opts.Catalog.Names()))
				}
				// Honor ctx mid-simulation, not just at scheduling: a
				// cancelled sweep (client disconnect, -timeout, Ctrl-C)
				// stops the in-flight run too.
				return core.RunSourceCtx(ctx, src, r.opts.Insts/2, r.opts.Insts, mk)
			},
		}
	}
	rs, err := r.eng.RunBatch(r.ctx, jobs)
	if err != nil && r.err == nil {
		r.err = err
	}
	out := make(map[string]pipeline.Result, len(rs))
	for _, jr := range rs {
		if jr.Err == nil {
			out[jr.Bench] = jr.Value
		}
	}
	return out
}

// Series is one per-benchmark speedup curve plus its summary, the unit of
// every figure in the paper.
type Series struct {
	Name    string
	Bench   []string  // Table II order
	Speedup []float64 // aligned with Bench
	Summary util.Summary
}

// curve is one line of a figure: its label and the configuration it
// simulates.
type curve struct {
	label string
	mk    core.ConfigFactory
}

// over runs base and every curve, and returns each curve's speedup over
// base in curve order.
func (r *Runner) over(base core.ConfigFactory, curves ...curve) []Series {
	b := r.Results(base)
	out := make([]Series, len(curves))
	for i, c := range curves {
		out[i] = r.speedups(c.label, b, r.Results(c.mk))
	}
	return out
}

// speedups builds a Series of cycles(base)/cycles(cfg) per benchmark.
func (r *Runner) speedups(name string, base, cfg map[string]pipeline.Result) Series {
	s := Series{Name: name}
	for _, b := range r.Workloads() {
		rb, ok1 := base[b]
		rc, ok2 := cfg[b]
		if !ok1 || !ok2 || rc.Cycles == 0 {
			continue
		}
		s.Bench = append(s.Bench, b)
		s.Speedup = append(s.Speedup, float64(rb.Cycles)/float64(rc.Cycles))
	}
	s.Summary = util.Summarize(s.Speedup)
	return s
}
