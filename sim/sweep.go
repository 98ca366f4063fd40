package sim

import (
	"context"
	"fmt"
	"io"
	"slices"
	"time"

	"bebop/internal/engine"
	"bebop/internal/experiments"
	"bebop/internal/trace"
	"bebop/internal/util"
)

// SweepOptions configures a Sweeper session. The instruction budget and
// workload catalog are fixed per Sweeper because results are cached by
// (configuration, workload): one budget per cache keeps entries
// comparable across experiments and, for the HTTP service, across
// requests.
type SweepOptions struct {
	// Insts is the per-workload measured budget (0 = DefaultInsts).
	Insts int64
	// TraceDir adds a directory of .bbt traces to the workload catalog.
	TraceDir string
	// Parallel bounds concurrent simulations (0 = GOMAXPROCS).
	Parallel int
	// Progress, when set, receives one event per completed simulation.
	Progress func(Progress)
}

// Progress is one completed simulation inside a sweep.
type Progress struct {
	// Config is the configuration key; Workload the benchmark.
	Config   string
	Workload string
	// Cached reports a cache hit (no simulation ran).
	Cached  bool
	Elapsed time.Duration
	// Completed / Total count scheduled simulations in the current batch.
	Completed, Total int
	// Err is non-nil when the simulation failed (e.g. cancellation).
	Err error
}

// EngineStats is a snapshot of the sweep engine's shared result cache.
type EngineStats struct {
	Workers      int    `json:"workers"`
	CacheEntries int    `json:"cache_entries"`
	CacheHits    uint64 `json:"cache_hits"`
	CacheMisses  uint64 `json:"cache_misses"`
	Runs         uint64 `json:"runs"`
}

// Sweeper regenerates the paper's tables and figures (see Experiments)
// over a shared caching engine: baselines reused by several experiments
// simulate once per Sweeper. Methods are safe for concurrent use; each
// call derives a request-scoped view over the shared cache.
type Sweeper struct {
	opts   SweepOptions
	runner *experiments.Runner
	names  []string
}

// NewSweeper builds a sweep session (scanning TraceDir, if set).
func NewSweeper(opts SweepOptions) (*Sweeper, error) {
	if opts.Insts == 0 {
		opts.Insts = DefaultInsts
	}
	cat, err := trace.Catalog(opts.TraceDir)
	if err != nil {
		return nil, err
	}
	ropts := experiments.Options{
		Insts:    opts.Insts,
		Parallel: opts.Parallel,
		Catalog:  cat,
	}
	if fn := opts.Progress; fn != nil {
		ropts.OnProgress = func(ev engine.Event) {
			if ev.Kind != engine.EventDone {
				return
			}
			fn(Progress{
				Config: ev.Key, Workload: ev.Bench,
				Cached: ev.Cached, Elapsed: ev.Elapsed,
				Completed: ev.Completed, Total: ev.Total,
				Err: ev.Err,
			})
		}
	}
	return &Sweeper{
		opts:   opts,
		runner: experiments.NewRunner(ropts),
		names:  cat.Names(),
	}, nil
}

// Insts reports the per-workload budget this Sweeper runs at.
func (s *Sweeper) Insts() int64 { return s.opts.Insts }

// Workloads lists the catalog workload names in catalog order.
func (s *Sweeper) Workloads() []string { return append([]string(nil), s.names...) }

// Stats snapshots the shared engine cache.
func (s *Sweeper) Stats() EngineStats {
	st := s.runner.Engine().Stats()
	return EngineStats{
		Workers:      s.runner.Engine().Workers(),
		CacheEntries: st.Entries,
		CacheHits:    st.Hits,
		CacheMisses:  st.Misses,
		Runs:         st.Runs,
	}
}

// Tables validates spec against this Sweeper, runs the sweep on a
// request-scoped view of the shared cache and returns one table per
// experiment, in spec order — the form every output format renders.
func (s *Sweeper) Tables(ctx context.Context, spec SweepSpec) ([]ExperimentTable, error) {
	spec, err := spec.Validate()
	if err != nil {
		return nil, err
	}
	if spec.Insts != 0 && spec.Insts != s.opts.Insts {
		return nil, &BudgetError{Want: spec.Insts, Fixed: s.opts.Insts}
	}
	if spec.TraceDir != "" && spec.TraceDir != s.opts.TraceDir {
		return nil, &BudgetError{TraceDir: true, WantDir: spec.TraceDir, FixedDir: s.opts.TraceDir}
	}
	for _, w := range spec.Workloads {
		if !slices.Contains(s.names, w) {
			return nil, util.UnknownName("workload", w, s.names)
		}
	}
	r := s.runner.WithContext(ctx)
	if len(spec.Workloads) > 0 {
		r = r.WithWorkloads(spec.Workloads)
	}
	return r.Reports(spec.Experiments)
}

// Write runs the sweep and renders its tables to w as "text", "json" or
// "csv" (see Formats). Every experiment runs before the first byte is
// written, so a mid-sweep failure (e.g. cancellation) yields an error,
// not a partial document.
func (s *Sweeper) Write(ctx context.Context, w io.Writer, format string, spec SweepSpec) error {
	f, err := engine.ParseFormat(format)
	if err != nil {
		return util.UnknownName("format", format, engine.Formats())
	}
	tables, err := s.Tables(ctx, spec)
	if err != nil {
		return err
	}
	return f.Write(w, tables...)
}

// ExperimentTable is one rendered experiment: a labelled table (columns
// + rows) that text, JSON and CSV emitters all consume.
type ExperimentTable = engine.Report

// ExperimentRow is one labelled row of an ExperimentTable.
type ExperimentRow = engine.Row

// BudgetError reports a SweepSpec that asks for a different fixed
// per-session resource (instruction budget or trace directory) than the
// Sweeper was built with. The HTTP service maps it to a client error:
// restart the server, or drop the field from the spec.
type BudgetError struct {
	Want, Fixed int64
	TraceDir    bool
	WantDir     string
	FixedDir    string
}

// Error implements error.
func (e *BudgetError) Error() string {
	if e.TraceDir {
		return fmt.Sprintf("sim: this sweep session scans trace_dir %q; spec asks for %q (drop trace_dir from the spec or restart with -trace-dir)",
			e.FixedDir, e.WantDir)
	}
	return fmt.Sprintf("sim: this sweep session runs a fixed budget of %d instructions per workload; spec asks for %d (drop insts from the spec or restart with -n)",
		e.Fixed, e.Want)
}
