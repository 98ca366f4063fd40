// Package sim is the public SDK of the BeBoP reproduction: the stable,
// versioned surface through which every consumer — the four cmd/
// binaries, the examples, the HTTP service and external importers — runs
// simulations. Everything under bebop/internal/ is free to change;
// this package is not.
//
// It has three pillars:
//
//   - A functional-options builder for one simulation run:
//
//     rep, err := sim.New(
//     sim.WithWorkload("mcf"),
//     sim.WithConfig("eole-bebop/Medium"),
//     sim.WithInsts(200_000),
//     ).Run(ctx)
//
//     Run is context-cancellable mid-simulation and returns a Report, a
//     flattened, schema-versioned result with an explicit JSON encoding.
//
//   - A declarative RunSpec / SweepSpec (spec.go): the same run described
//     as JSON data, consumed by `bebop-sim -spec`, `bebop-sweep -spec`
//     and the bebop-serve v1 REST API. sim.New(...).Spec() serializes a
//     builder back to the spec that reproduces its run bit-identically.
//
//   - A Sweeper (sweep.go) regenerating the paper's tables and figures
//     over the shared caching engine.
//
// The package also re-exports the names every front end needs for help
// text and validation (names.go), the workload-profile and predictor
// types advanced users build on (compat.go), and the build-version
// helper shared by all commands (version.go).
package sim

import (
	"context"
	"errors"
	"fmt"

	"bebop/internal/core"
	"bebop/internal/pipeline"
	"bebop/internal/telemetry"
	"bebop/internal/trace"
	"bebop/internal/workload"
)

// Checkpoint side-file outcomes: a validated side-file restores for
// free; anything else pays a continuous functional-warming pass.
var (
	mCkptReused = telemetry.Default.Counter(`bebop_sim_checkpoint_files_total{outcome="reused"}`,
		"Checkpoint side-file resolutions by outcome.")
	mCkptRebuilt = telemetry.Default.Counter(`bebop_sim_checkpoint_files_total{outcome="rebuilt"}`,
		"Checkpoint side-file resolutions by outcome.")
)

// Sim is a configured simulation, built with New. The zero value is not
// usable.
type Sim struct {
	spec      RunSpec
	progress  func(streamed, total int64)
	telemetry bool
}

// Option configures a Sim.
type Option func(*Sim)

// New assembles a simulation from options. Nothing is validated until
// Spec or Run is called, so options can be applied in any order.
func New(opts ...Option) *Sim {
	s := &Sim{}
	for _, o := range opts {
		o(s)
	}
	return s
}

// FromSpec builds a Sim that runs the given declarative spec. Observer
// options (WithProgress, WithTelemetry) may be layered on top; options
// that alter the spec itself apply too, but a spec is usually complete.
func FromSpec(spec RunSpec, opts ...Option) *Sim {
	s := &Sim{spec: spec}
	for _, o := range opts {
		o(s)
	}
	return s
}

// WithWorkload selects a catalog workload by name: a Table II synthetic
// benchmark, or a recorded trace when combined with WithTraceDir.
func WithWorkload(name string) Option {
	return func(s *Sim) { s.spec.Workload = name }
}

// WithTrace replays a recorded .bbt trace file.
func WithTrace(path string) Option {
	return func(s *Sim) { s.spec.Trace = path }
}

// WithProfile runs a custom synthetic benchmark profile.
func WithProfile(p Profile) Option {
	return func(s *Sim) { s.spec.Profile = &p }
}

// WithTraceDir adds a directory of .bbt traces to the workload catalog.
func WithTraceDir(dir string) Option {
	return func(s *Sim) { s.spec.TraceDir = dir }
}

// WithConfig selects the pipeline model: "baseline", "baseline-vp",
// "eole" or "eole-bebop", optionally with the predictor inline as
// "<config>/<predictor>" (e.g. "eole-bebop/Medium"). See RunSpec.Config.
func WithConfig(name string) Option {
	return func(s *Sim) { s.spec.Config = name }
}

// WithPredictor names the value predictor (baseline-vp) or Table III
// configuration (eole-bebop). See RunSpec.Predictor.
func WithPredictor(name string) Option {
	return func(s *Sim) { s.spec.Predictor = name }
}

// WithBeBoP runs EOLE with a custom block-based predictor geometry
// instead of a named Table III configuration.
func WithBeBoP(cfg BeBoPConfig) Option {
	return func(s *Sim) { s.spec.BeBoP = &cfg }
}

// WithInsts sets the measured dynamic instruction budget.
func WithInsts(n int64) Option {
	return func(s *Sim) { s.spec.Insts = n }
}

// WithWarmup sets the warmup instruction budget explicitly (default:
// half the measured budget; 0 measures from a cold pipeline).
func WithWarmup(n int64) Option {
	return func(s *Sim) { s.spec.Warmup = &n }
}

// WithSampling estimates the measured region by SMARTS-style sampled
// simulation instead of one continuous detailed run: the report gains
// an IPC mean with a 95% confidence interval (Report.Sampling). The
// zero value of every SamplingSpec field selects a documented default.
func WithSampling(sp SamplingSpec) Option {
	return func(s *Sim) { s.spec.Sampling = &sp }
}

// WithProgress streams coarse progress: for plain runs fn is called
// about every 1K simulated instructions with the count streamed so far
// and the total warmup+measure budget; for sampled runs it is called
// once per completed interval with detailed-instruction counts. fn runs
// on simulation goroutines (serialized) and is not part of the spec
// (progress is an observer, not run configuration).
func WithProgress(fn func(streamed, total int64)) Option {
	return func(s *Sim) { s.progress = fn }
}

// Spec validates the accumulated options and returns the normalized
// RunSpec describing this simulation — the JSON-serializable value that
// reproduces this run through `bebop-sim -spec` or `POST /v1/runs`.
func (s *Sim) Spec() (RunSpec, error) { return s.spec.Validate() }

// Run validates and executes the simulation. It honors ctx mid-run: a
// cancelled context stops the simulation within ~1K instructions and
// returns ctx's error. Identical specs produce bit-identical Reports.
func (s *Sim) Run(ctx context.Context) (Report, error) {
	spec, src, mk, err := s.spec.resolve()
	if err != nil {
		return Report{}, err
	}
	var tr *telemetry.Trace
	if s.telemetry {
		// Telemetry rides observer seams only: a trace in the context for
		// phase spans, and H2P collection in the pipeline config — which
		// attributes existing misprediction counts without perturbing any
		// simulated outcome (pinned by TestH2PIsPureObserver and the
		// telemetry determinism test).
		tr = telemetry.NewTrace()
		ctx = telemetry.WithTrace(ctx, tr)
		inner := mk
		mk = func() pipeline.Config {
			cfg := inner()
			cfg.CollectH2P = true
			return cfg
		}
	}
	if spec.Sampling != nil {
		return s.runSampled(ctx, spec, src, mk, tr)
	}
	res, err := core.RunSourceProgress(ctx, src, *spec.Warmup, spec.Insts, mk, s.progress)
	if err != nil {
		return Report{}, err
	}
	rep := newReport(spec, src.Name(), res)
	if tr != nil {
		rep.Telemetry = newTelemetryReport(tr, res)
	}
	return rep, nil
}

// runSampled executes a validated spec's sampling block through
// core.RunSampled, resolving the checkpoint side-file first when asked.
// tr, when non-nil, receives phase spans and yields the report's
// Telemetry block.
func (s *Sim) runSampled(ctx context.Context, spec RunSpec, src workload.Source, mk core.ConfigFactory, tr *telemetry.Trace) (Report, error) {
	sp := core.SamplingParams{
		Intervals:     spec.Sampling.Intervals,
		IntervalInsts: spec.Sampling.IntervalInsts,
		WarmupInsts:   spec.Sampling.Warmup,
		DetailWarmup:  spec.Sampling.DetailWarmup,
	}
	if s.progress != nil {
		// Map per-interval completion onto the (streamed, total) progress
		// contract: each interval contributes its detailed budget. Calls
		// arrive serialized from core.RunSampled, one per interval.
		per := spec.Sampling.DetailWarmup + spec.Sampling.IntervalInsts
		on := s.progress
		sp.OnInterval = func(done, total int) {
			on(int64(done)*per, int64(total)*per)
		}
	}
	var (
		res pipeline.Result
		st  core.SampleStats
		err error
	)
	if spec.Sampling.Checkpoints {
		fs, ok := src.(trace.FileSource)
		if !ok {
			return Report{}, fmt.Errorf("sim: %w: sampling checkpoints need a trace-backed workload, %q is synthetic",
				ErrInvalidSpec, src.Name())
		}
		res, st, err = runCheckpointed(ctx, fs, mk, spec, sp)
	} else {
		res, st, err = core.RunSampled(ctx, src, *spec.Warmup, spec.Insts, mk, sp)
	}
	if err != nil {
		return Report{}, err
	}
	rep := newReport(spec, src.Name(), res)
	rep.Sampling = &SamplingReport{
		Intervals:       spec.Sampling.Intervals,
		IntervalInsts:   spec.Sampling.IntervalInsts,
		WarmupInsts:     spec.Sampling.Warmup,
		DetailWarmup:    spec.Sampling.DetailWarmup,
		CheckpointsUsed: st.CheckpointsUsed,
		IPCMean:         st.IPCMean,
		IPCStdDev:       st.IPCStdDev,
		IPCCI95:         st.IPCCI95,
		IntervalIPCs:    st.IntervalIPCs,
	}
	if tr != nil {
		rep.Telemetry = newTelemetryReport(tr, res)
	}
	return rep, nil
}

// runCheckpointed runs a sampled spec whose intervals restore from the
// trace's checkpoint side-file. The side-file is the cache that
// amortizes warming across sampled runs: the first request pays one
// continuous functional-warming pass, every later one restores. A
// side-file that is missing, fails to open, belongs to a different
// trace or configuration, or whose first point lies past the spacing
// this spec would build is rebuilt as the run goes; one whose point
// fails to decode or restore when an interval needs it is rebuilt and
// the run repeated. Either way the file counts as rebuilt, once, and
// never as reused. A spec's own side-file always passes the spacing
// check, so specs cannot take turns rebuilding one file, and a denser
// file is reused.
func runCheckpointed(ctx context.Context, fs trace.FileSource, mk core.ConfigFactory, spec RunSpec, sp core.SamplingParams) (pipeline.Result, core.SampleStats, error) {
	cfgName := mk().Name
	path := trace.CheckpointPath(fs.Path, cfgName)
	r, err := trace.OpenFile(fs.Path)
	if err != nil {
		return pipeline.Result{}, core.SampleStats{}, err
	}
	hdr := r.Header()
	r.Close()
	if set, err := trace.OpenCheckpoints(path); err == nil {
		first, ok := set.FirstPoint()
		if set.Validate(hdr, cfgName) == nil && ok && first <= checkpointSpacing(spec) {
			sp.Checkpoints = set
			res, st, err := core.RunSampled(ctx, fs, *spec.Warmup, spec.Insts, mk, sp)
			set.Close()
			if !errors.Is(err, trace.ErrBadPoint) {
				mCkptReused.Inc()
				return res, st, err
			}
		} else {
			set.Close()
		}
	}
	mCkptRebuilt.Inc()
	return runRebuilding(ctx, fs, mk, spec, sp, hdr, cfgName, path)
}

// checkpointSpacing is the point spacing a side-file built for spec
// uses: one point per interval stride, bounded so a huge run cannot
// bloat the side-file past 64 snapshots.
func checkpointSpacing(spec RunSpec) int64 {
	return max(spec.Insts/int64(spec.Sampling.Intervals), (*spec.Warmup+spec.Insts)/64, 1)
}

// runRebuilding runs a sampled spec while one continuous
// functional-warming pass rebuilds the side-file at path beside it: the
// pass streams each point into the file and to the intervals that
// restore it (core.RunSampledBuilding), so neither holds the points and
// the run never reads the new file back. The file is renamed into place
// only when both the pass and the run succeed; otherwise no side-file
// and no temp file is left.
func runRebuilding(ctx context.Context, fs trace.FileSource, mk core.ConfigFactory, spec RunSpec, sp core.SamplingParams, hdr trace.Header, cfgName, path string) (pipeline.Result, core.SampleStats, error) {
	every, upTo := checkpointSpacing(spec), *spec.Warmup+spec.Insts
	w, err := trace.CreateCheckpoints(path, hdr.Name, int64(hdr.Insts), cfgName, core.CheckpointCount(every, upTo))
	if err != nil {
		return pipeline.Result{}, core.SampleStats{}, err
	}
	res, st, err := core.RunSampledBuilding(ctx, fs, *spec.Warmup, spec.Insts, mk, sp, every, w.Add)
	if err == nil {
		err = w.Commit()
	} else {
		w.Abort()
	}
	if err != nil {
		return pipeline.Result{}, core.SampleStats{}, err
	}
	return res, st, nil
}

// Run executes a declarative spec: shorthand for FromSpec(spec).Run(ctx).
func Run(ctx context.Context, spec RunSpec) (Report, error) {
	return FromSpec(spec).Run(ctx)
}

// StorageKBOf reports a configuration's value predictor storage in KB
// without running it (Table III accounting); 0 when it has no VP.
func StorageKBOf(spec RunSpec) (float64, error) {
	_, _, mk, err := spec.resolve()
	if err != nil {
		return 0, err
	}
	cfg := mk()
	if cfg.VP == nil {
		return 0, nil
	}
	return float64(cfg.VP.StorageBits()) / 8 / 1024, nil
}
