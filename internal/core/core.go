// Package core is the top-level API of the BeBoP reproduction: it wires
// workloads, predictors and pipeline configurations into the named models
// of the paper and runs them.
//
// The three pipeline models (Section V):
//
//   - Baseline_6_60:    6-issue, 60-entry IQ, no value prediction
//   - Baseline_VP_6_60: Baseline_6_60 + a value predictor with an
//     idealistic per-instruction infrastructure
//   - EOLE_4_60:        4-issue EOLE pipeline + value prediction
//
// and the predictor configurations of Table III (Small_4p, Small_6p,
// Medium, Large) plus the exploration configurations of Fig. 6.
package core

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"

	"bebop/internal/bebop"
	"bebop/internal/faultinject"
	"bebop/internal/isa"
	"bebop/internal/pipeline"
	"bebop/internal/predictor"
	"bebop/internal/specwindow"
	"bebop/internal/telemetry"
	"bebop/internal/util"
	"bebop/internal/workload"
)

// Pool-reuse counters: how often a run got a recycled processor versus
// paying for a fresh pipeline.New.
var (
	mProcReused = telemetry.Default.Counter(`bebop_core_proc_pool_total{outcome="reused"}`,
		"Processor acquisitions by outcome (reused = recycled from the pool).")
	mProcNew = telemetry.Default.Counter(`bebop_core_proc_pool_total{outcome="new"}`,
		"Processor acquisitions by outcome (reused = recycled from the pool).")
	mRunPanics = telemetry.Default.Counter("bebop_core_run_panics_total",
		"Simulation panics recovered into per-run errors (the process survives).")
)

// ConfigFactory builds a fresh pipeline configuration. Predictors are
// stateful, so every simulation run needs its own instance. The built
// config's Name, set by this package's factories, is the configuration's
// one identity: sweeps cache results and side-files are keyed by it, so
// two factories that build equal configurations give them equal names,
// and unequal ones distinct names.
type ConfigFactory func() pipeline.Config

// procPool recycles processors across simulation jobs: engine workers and
// sweeps run many (configuration, workload) pairs back to back, and
// Processor.Reset clears the TAGE/BTB/cache/store-set tables in place
// instead of reallocating them per job. Results are identical to a fresh
// pipeline.New (see TestProcessorReuseDeterministic).
var procPool = sync.Pool{}

// acquireProc returns a processor armed for cfg over stream, reusing a
// pooled one when available.
func acquireProc(cfg pipeline.Config, stream isa.Stream) *pipeline.Processor {
	if v := procPool.Get(); v != nil {
		p := v.(*pipeline.Processor)
		p.Reset(cfg, stream)
		mProcReused.Inc()
		return p
	}
	mProcNew.Inc()
	return pipeline.New(cfg, stream)
}

// guard is this package's one panic guard: a panic anywhere inside fn
// (a simulator bug on a pathological input, a workload that cannot be
// built, a trace decoder, chaos injection) becomes an error carrying the
// stack instead of taking down the process and every other in-flight
// run.
func guard(fn func() error) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			mRunPanics.Inc()
			err = fmt.Errorf("core: simulation panicked: %v\n%s", rec, debug.Stack())
		}
	}()
	return fn()
}

// open opens src for n instructions inside the guard.
func open(src workload.Source, n int64) (stream isa.Stream, err error) {
	err = guard(func() error {
		stream, err = src.Open(n)
		return err
	})
	return stream, err
}

// simulate drives a processor for one job: it arms a pooled processor
// for mk() over stream and hands it to fn, inside the guard. On a normal
// return, fn's error included, the processor is released back to
// procPool; after a panic the seized processor is dropped, not pooled,
// so its unknown state cannot poison a later run. runStream is its one
// caller; a sampling worker holds its processor across intervals under
// the same rules (sampleWorker).
func simulate(mk ConfigFactory, stream isa.Stream, fn func(*pipeline.Processor) error) error {
	return guard(func() error {
		proc := acquireProc(mk(), stream)
		err := fn(proc)
		proc.Release()
		procPool.Put(proc)
		return err
	})
}

// runStream is the one lifecycle of a stream a whole run or a
// checkpoint pass simulates, opened by the caller with open or
// openBudgeted: it runs fn on a pooled processor over the stream inside
// simulate, reports an error the stream recorded mid-run (a corrupt
// trace), and closes it. Sampling workers keep their stream and their
// processor across intervals instead (see sampleWorker). The processor
// reads through a cancelStream only when ctx can be cancelled or on
// wants progress, which keeps the polling wrapper off the hot path of
// plain context.Background runs (benchmarks, allocation gates).
func runStream(ctx context.Context, src workload.Source, stream isa.Stream, total int64, on func(streamed, total int64), mk ConfigFactory, fn func(*pipeline.Processor) error) error {
	run := stream
	if ctx.Done() != nil || on != nil {
		run = &cancelStream{inner: stream, ctx: ctx, total: total, on: on}
	}
	err := simulate(mk, run, fn)
	if es, ok := run.(errStream); ok && es.Err() != nil && err == nil {
		err = fmt.Errorf("core: workload %q: %w", src.Name(), es.Err())
	}
	if cerr := closeStream(stream); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// errStream is implemented by streams that can fail mid-run (a corrupt
// trace); the generator never does.
type errStream interface{ Err() error }

// sizedStream is implemented by streams with a known total length
// (trace.Reader); generators produce however many are asked for.
type sizedStream interface{ TotalInsts() int64 }

// openBudgeted opens src for a run of warmup+insts instructions. A
// stream that knows its length must cover that budget: a half-warmed
// run silently labeled as measured would poison every comparison
// against it. On error nothing is left open.
func openBudgeted(src workload.Source, warmup, insts int64) (isa.Stream, error) {
	stream, err := open(src, warmup+insts)
	if err != nil {
		return nil, err
	}
	if ss, ok := stream.(sizedStream); ok && ss.TotalInsts() < warmup+insts {
		closeStream(stream)
		return nil, fmt.Errorf(
			"core: workload %q holds %d instructions, need %d (%d warmup + %d measured); shrink -n or record a longer trace",
			src.Name(), ss.TotalInsts(), warmup+insts, warmup, insts)
	}
	return stream, nil
}

// cancelStream wraps a workload stream so a cancelled context ends the
// run: Next polls ctx every cancelCheckInsts instructions and reports
// end-of-stream once the context is done, letting the pipeline drain its
// in-flight window and return; the recorded context error then surfaces
// through runStream's errStream check. The wrapper is
// pass-through otherwise, so a run that is never cancelled stays
// bit-identical to an unwrapped one.
type cancelStream struct {
	inner isa.Stream
	ctx   context.Context
	n     int64
	total int64
	on    func(streamed, total int64)
	err   error
}

const cancelCheckInsts = 1024

func (c *cancelStream) Next(in *isa.Inst) bool {
	if c.err != nil {
		return false
	}
	if c.n++; c.n%cancelCheckInsts == 0 {
		if err := c.ctx.Err(); err != nil {
			c.err = err
			return false
		}
		if c.on != nil {
			c.on(c.n, c.total)
		}
	}
	return c.inner.Next(in)
}

func (c *cancelStream) Err() error {
	if c.err != nil {
		return c.err
	}
	if es, ok := c.inner.(errStream); ok {
		return es.Err()
	}
	return nil
}

// RunSourceCtx simulates warmup+insts instructions of a workload source
// (a synthetic profile through workload.ProfileSource, or a recorded
// trace) and reports statistics for the final insts only: the warmup
// trains every structure (caches, branch predictor, value predictor),
// mirroring the paper's methodology (Section V-C: "warm up all
// structures for 50M instructions, then collect statistics for 100M
// instructions"). A cancelled ctx stops the simulation within ~1K
// instructions and returns ctx's error. A trace too short for the
// warmup+measure budget is an error.
func RunSourceCtx(ctx context.Context, src workload.Source, warmup, insts int64, mk ConfigFactory) (pipeline.Result, error) {
	return RunSourceProgress(ctx, src, warmup, insts, mk, nil)
}

// RunSourceProgress is RunSourceCtx with a coarse progress callback: on is
// invoked about every 1K streamed instructions with the number streamed so
// far and the total warmup+insts budget. It must be fast; it runs on the
// simulation goroutine.
func RunSourceProgress(ctx context.Context, src workload.Source, warmup, insts int64, mk ConfigFactory, on func(streamed, total int64)) (pipeline.Result, error) {
	if err := ctx.Err(); err != nil {
		return pipeline.Result{}, err
	}
	stream, err := openBudgeted(src, warmup, insts)
	if err != nil {
		return pipeline.Result{}, err
	}
	sp := telemetry.TraceFrom(ctx).Start("detailed").SetInsts(warmup + insts)
	var r pipeline.Result
	err = runStream(ctx, src, stream, warmup+insts, on, mk, func(p *pipeline.Processor) error {
		if err := faultinject.Fire("core.run"); err != nil {
			return err
		}
		r = p.RunWarm(warmup, 0)
		return nil
	})
	sp.End()
	return r, err
}

// Baseline returns the Baseline_6_60 factory.
func Baseline() ConfigFactory {
	return func() pipeline.Config { return pipeline.DefaultConfig() }
}

// InstPredictorNames lists the per-instruction predictors of Fig. 5(a).
func InstPredictorNames() []string {
	return []string{"2d-Stride", "VTAGE", "VTAGE-2d-Stride", "D-VTAGE"}
}

// AllPredictorNames lists every predictor NewInstPredictor accepts: the
// Fig. 5(a) contenders plus the classic baselines (LVP, Stride, FCM,
// D-FCM) kept for ablations. CLI help and error text should use this,
// not InstPredictorNames, so no accepted name is undiscoverable.
func AllPredictorNames() []string {
	return append(InstPredictorNames(), "LVP", "Stride", "FCM", "D-FCM")
}

// NewInstPredictor builds a fresh per-instruction predictor by name, sized
// as in Section V-B (8K-entry base structures).
func NewInstPredictor(name string) (predictor.Predictor, error) {
	switch name {
	case "2d-Stride":
		return predictor.NewTwoDeltaStride(8192, 0x2D57), nil
	case "VTAGE":
		return predictor.NewVTAGE(predictor.DefaultVTAGEConfig()), nil
	case "VTAGE-2d-Stride":
		return predictor.NewVTAGE2dStride(predictor.DefaultVTAGEConfig(), 8192), nil
	case "D-VTAGE":
		return predictor.NewDVTAGEInst(predictor.DefaultDVTAGEConfig()), nil
	case "LVP":
		return predictor.NewLastValue(8192, 0x11F), nil
	case "Stride":
		return predictor.NewStride(8192, 0x57), nil
	case "FCM":
		// Order-4 FCM sized like the VTAGE of Section VII-A.
		return predictor.NewFCM(4, 8192, 16384, 0xFC1), nil
	case "D-FCM":
		return predictor.NewDFCM(4, 8192, 16384, 0xDFC1), nil
	}
	return nil, fmt.Errorf("core: %w",
		util.UnknownName("predictor", name, AllPredictorNames()))
}

// BaselineVP returns the Baseline_VP_6_60 factory with the named
// per-instruction predictor (Section VI-A).
func BaselineVP(pred string) ConfigFactory {
	return func() pipeline.Config {
		p, err := NewInstPredictor(pred)
		if err != nil {
			panic(err)
		}
		cfg := pipeline.DefaultConfig().WithVP(pipeline.NewInstVP(p))
		cfg.Name = "Baseline_VP_6_60/" + pred
		return cfg
	}
}

// EOLEInstVP returns the EOLE_4_60 factory with a per-instruction D-VTAGE
// (the idealistic infrastructure of Fig. 5(b)).
func EOLEInstVP() ConfigFactory {
	return func() pipeline.Config {
		p, err := NewInstPredictor("D-VTAGE")
		if err != nil {
			panic(err)
		}
		cfg := pipeline.DefaultConfig().WithVP(pipeline.NewInstVP(p)).WithEOLE(4)
		cfg.Name = "EOLE_4_60"
		return cfg
	}
}

// BlockConfig assembles a BeBoP D-VTAGE configuration: npred predictions
// per entry, baseEntries base component entries, six tagged components of
// taggedEntries each, the given stride width in bits, a speculative window
// of winSize entries (-1 = unbounded, 0 = none) and a recovery policy.
func BlockConfig(npred, baseEntries, taggedEntries, strideBits, winSize int, policy specwindow.Policy) bebop.Config {
	return bebop.Config{
		Predictor: predictor.DVTAGEConfig{
			NPred:         npred,
			BaseEntries:   baseEntries,
			LVTTagBits:    5,
			TaggedEntries: taggedEntries,
			HistLens:      []int{2, 4, 8, 16, 32, 64},
			TagBitsLo:     13,
			StrideBits:    strideBits,
			FPCProbs:      predictor.DefaultFPCProbs(),
			Seed:          0xBEB0,
		},
		WindowSize:    winSize,
		WindowTagBits: 15,
		Policy:        policy,
	}
}

// BlockName names a BlockConfig geometry by the knobs BlockConfig takes,
// e.g. "custom-6p-2048b-256t-64s-w-1-Ideal". Equal geometries get equal
// names, so a geometry that several figures sweep simulates once.
func BlockName(bb bebop.Config) string {
	pc := bb.Predictor
	return fmt.Sprintf("custom-%dp-%db-%dt-%ds-w%d-%s",
		pc.NPred, pc.BaseEntries, pc.TaggedEntries, pc.StrideBits, bb.WindowSize, bb.Policy)
}

// Table III configurations (all use the realistic DnRDnR policy).

// SmallConfig4p is Small_4p: 4 predictions/entry, 256-entry base, 6×128
// tagged, 32-entry window, 8-bit strides (~17.26KB in the paper).
func SmallConfig4p() bebop.Config {
	return BlockConfig(4, 256, 128, 8, 32, specwindow.PolicyDnRDnR)
}

// SmallConfig6p is Small_6p: 6 predictions/entry, 128-entry base, 6×128
// tagged, 32-entry window, 8-bit strides (~17.18KB).
func SmallConfig6p() bebop.Config {
	return BlockConfig(6, 128, 128, 8, 32, specwindow.PolicyDnRDnR)
}

// MediumConfig is Medium: 6 predictions/entry, 256-entry base, 6×256
// tagged, 32-entry window, 8-bit strides (~32.76KB).
func MediumConfig() bebop.Config {
	return BlockConfig(6, 256, 256, 8, 32, specwindow.PolicyDnRDnR)
}

// LargeConfig is Large: 6 predictions/entry, 512-entry base, 6×256
// tagged, 56-entry window, 16-bit strides (~61.65KB).
func LargeConfig() bebop.Config {
	return BlockConfig(6, 512, 256, 16, 56, specwindow.PolicyDnRDnR)
}

// EOLEBeBoP returns the EOLE_4_60 factory with a BeBoP block-based
// D-VTAGE infrastructure.
func EOLEBeBoP(name string, bb bebop.Config) ConfigFactory {
	return func() pipeline.Config {
		cfg := pipeline.DefaultConfig().WithVP(bebop.New(bb)).WithEOLE(4)
		cfg.Name = "EOLE_4_60/" + name
		return cfg
	}
}

// ConfigNames lists the configuration names NamedFactory accepts, in
// the order the CLIs document them.
func ConfigNames() []string {
	return []string{"baseline", "baseline-vp", "eole", "eole-bebop"}
}

// TableIIINames lists the Table III configuration names in paper order.
func TableIIINames() []string {
	cs := TableIIIConfigs()
	names := make([]string, len(cs))
	for i, c := range cs {
		names[i] = c.Name
	}
	return names
}

// TableIIIByName returns the named Table III BeBoP configuration.
func TableIIIByName(name string) (bebop.Config, error) {
	for _, c := range TableIIIConfigs() {
		if c.Name == name {
			return c.Cfg, nil
		}
	}
	return bebop.Config{}, fmt.Errorf("core: %w",
		util.UnknownName("Table III config", name, TableIIINames()))
}

// NamedFactory resolves a CLI configuration name to its factory:
// "baseline", "eole", "baseline-vp" (pred selects a predictor, see
// AllPredictorNames) or "eole-bebop" (pred selects a Table III config).
// Custom BeBoP geometries resolve through BlockConfig, BlockName and
// EOLEBeBoP; every named configuration goes through this resolver, so
// every front end (through the sim SDK) and perfbench's probe agree on
// names.
func NamedFactory(config, pred string) (ConfigFactory, error) {
	switch config {
	case "baseline":
		return Baseline(), nil
	case "baseline-vp":
		if _, err := NewInstPredictor(pred); err != nil {
			return nil, err
		}
		return BaselineVP(pred), nil
	case "eole":
		return EOLEInstVP(), nil
	case "eole-bebop":
		bb, err := TableIIIByName(pred)
		if err != nil {
			return nil, err
		}
		return EOLEBeBoP(pred, bb), nil
	}
	return nil, fmt.Errorf("core: %w",
		util.UnknownName("configuration", config, ConfigNames()))
}

// TableIIIConfigs returns the named final configurations of Table III in
// paper order.
func TableIIIConfigs() []struct {
	Name string
	Cfg  bebop.Config
} {
	return []struct {
		Name string
		Cfg  bebop.Config
	}{
		{"Small_4p", SmallConfig4p()},
		{"Small_6p", SmallConfig6p()},
		{"Medium", MediumConfig()},
		{"Large", LargeConfig()},
	}
}
