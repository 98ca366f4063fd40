package core

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"bebop/internal/faultinject"
	"bebop/internal/isa"
	"bebop/internal/pipeline"
	"bebop/internal/telemetry"
	"bebop/internal/util"
	"bebop/internal/workload"
)

// Interval-shard telemetry: how intervals were positioned and how long
// each shard took wall-clock (per-worker, so parallel shards overlap).
var (
	mIntervalCkpt = telemetry.Default.Counter(`bebop_core_intervals_total{start="checkpoint"}`,
		"Sampled intervals by positioning strategy.")
	mIntervalWarmed = telemetry.Default.Counter(`bebop_core_intervals_total{start="warmed"}`,
		"Sampled intervals by positioning strategy.")
	mIntervalSeconds = telemetry.Default.Histogram("bebop_core_interval_seconds",
		"Wall-clock seconds per sampled interval shard.",
		[]float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 30})
)

// SamplingParams configures SMARTS-style sampled simulation: instead of
// simulating the whole measured region cycle-accurately, Intervals
// evenly-spaced slices of IntervalInsts instructions each are measured
// in detail, every long-lived structure having first been trained by
// WarmupInsts of functional warming (plus DetailWarmup detailed but
// unmeasured instructions to settle pipeline-occupancy transients).
// Per-interval IPCs are reduced into a mean with a Student-t 95%
// confidence interval.
type SamplingParams struct {
	// Intervals is the number of measurement intervals (≥ 2 — a single
	// interval has no variance and therefore no confidence interval).
	Intervals int
	// IntervalInsts is the number of instructions measured per interval.
	IntervalInsts int64
	// WarmupInsts is the functional-warming window before each interval.
	// Ignored for every interval when Checkpoints is set: an interval
	// restores the nearest point at or before its start and warms on
	// from there, or warms from instruction 0 when no point qualifies,
	// so its state is continuous warming from instruction 0 either way.
	WarmupInsts int64
	// DetailWarmup is the number of detailed-but-unmeasured instructions
	// run between warming and measurement.
	DetailWarmup int64
	// Checkpoints optionally serves pre-built microarchitectural
	// snapshots (trace.CheckpointSet and trace.CheckpointFile implement
	// this); each interval restores the nearest one at or before its
	// start and warms the rest of the way, instead of re-warming from
	// scratch.
	Checkpoints CheckpointSource
	// OnInterval, when set, is invoked after each interval completes with
	// the number of finished intervals and the total. Calls are
	// serialized and done is strictly increasing, so callers can stream
	// progress without their own locking. It runs on worker goroutines;
	// keep it fast.
	OnInterval func(done, total int)
}

// CheckpointSource restores pre-built snapshots. RestoreNearest
// restores the snapshot with the largest instruction offset ≤ inst into
// p and returns that offset; ok is false, and p untouched, when none
// qualifies. Interval workers call it concurrently, each with its own
// processor.
type CheckpointSource interface {
	RestoreNearest(p *pipeline.Processor, inst int64) (at int64, ok bool, err error)
}

// SampleStats reports the sampling reduction alongside the aggregate
// pipeline.Result.
type SampleStats struct {
	Intervals       int
	IntervalInsts   int64
	WarmupInsts     int64
	DetailWarmup    int64
	CheckpointsUsed int
	// IPCMean is the mean of per-interval IPCs (the SMARTS estimator);
	// IPCCI95 is the 95% confidence half-width around it.
	IPCMean   float64
	IPCStdDev float64
	IPCCI95   float64
	// IntervalIPCs holds each interval's IPC in interval order.
	IntervalIPCs []float64
}

// validate rejects parameter sets the measured region cannot hold.
func (sp SamplingParams) validate(insts int64) error {
	if sp.Intervals < 2 {
		return fmt.Errorf("core: sampling needs at least 2 intervals, got %d", sp.Intervals)
	}
	if sp.IntervalInsts < 1 {
		return fmt.Errorf("core: sampling interval of %d instructions", sp.IntervalInsts)
	}
	if sp.WarmupInsts < 0 || sp.DetailWarmup < 0 {
		return fmt.Errorf("core: negative sampling warmup (%d functional, %d detailed)",
			sp.WarmupInsts, sp.DetailWarmup)
	}
	stride := insts / int64(sp.Intervals)
	if need := sp.DetailWarmup + sp.IntervalInsts; stride < need {
		return fmt.Errorf(
			"core: %d intervals of %d instructions (plus %d detail warmup) need %d per stride, measured region of %d provides %d",
			sp.Intervals, sp.IntervalInsts, sp.DetailWarmup, need, insts, stride)
	}
	return nil
}

// instSeeker is implemented by streams that can jump to an absolute
// instruction position (trace.Reader).
type instSeeker interface{ SeekInst(n int64) error }

// RunSampled estimates the measured region [warmup, warmup+insts) of a
// workload by detailed simulation of evenly-spaced intervals, sharded
// across up to GOMAXPROCS pooled processors. The aggregate Result sums
// the per-interval statistics; its IPC is the mean of per-interval IPCs
// (the quantity the confidence interval in SampleStats describes). The
// reduction is performed in interval order, so the outcome is
// bit-identical regardless of worker scheduling.
func RunSampled(ctx context.Context, src workload.Source, warmup, insts int64, mk ConfigFactory, sp SamplingParams) (pipeline.Result, SampleStats, error) {
	if err := sp.validate(insts); err != nil {
		return pipeline.Result{}, SampleStats{}, err
	}
	if err := ctx.Err(); err != nil {
		return pipeline.Result{}, SampleStats{}, err
	}
	// The same budget contract as a full run, or every interval
	// placement is fiction.
	probe, err := openBudgeted(src, warmup, insts)
	if err != nil {
		return pipeline.Result{}, SampleStats{}, err
	}
	closeStream(probe)

	stride := insts / int64(sp.Intervals)
	type intervalOut struct {
		res      pipeline.Result
		usedCkpt bool
		err      error
	}
	outs := make([]intervalOut, sp.Intervals)

	nw := runtime.GOMAXPROCS(0)
	if nw > sp.Intervals {
		nw = sp.Intervals
	}
	root := telemetry.TraceFrom(ctx).Start("sampled").SetInsts(insts)
	var progMu sync.Mutex
	progDone := 0
	idxCh := make(chan int)
	var wg sync.WaitGroup
	wg.Add(nw)
	for w := 0; w < nw; w++ {
		go func() {
			defer wg.Done()
			for i := range idxCh {
				if err := ctx.Err(); err != nil {
					outs[i].err = err
					continue
				}
				t0 := time.Now() //bebop:allow detlint -- wall time feeds only the interval-latency histogram, never the Result
				res, used, err := runInterval(ctx, src, warmup+int64(i)*stride, i, mk, sp)
				mIntervalSeconds.Observe(time.Since(t0).Seconds()) //bebop:allow detlint -- telemetry observation only
				outs[i] = intervalOut{res: res, usedCkpt: used, err: err}
				if sp.OnInterval != nil && err == nil {
					progMu.Lock()
					//bebop:allow detlint -- mutex-guarded progress counter feeding the OnInterval callback; the Report is reduced from outs in index order
					progDone++
					sp.OnInterval(progDone, sp.Intervals)
					progMu.Unlock()
				}
			}
		}()
	}
	for i := 0; i < sp.Intervals; i++ {
		idxCh <- i
	}
	close(idxCh)
	wg.Wait()
	root.End()

	// Reduce in interval order: deterministic under any parallelism.
	var well util.Welford
	st := SampleStats{
		Intervals:     sp.Intervals,
		IntervalInsts: sp.IntervalInsts,
		WarmupInsts:   sp.WarmupInsts,
		DetailWarmup:  sp.DetailWarmup,
		IntervalIPCs:  make([]float64, 0, sp.Intervals),
	}
	var agg pipeline.Result
	for i := range outs {
		o := &outs[i]
		if o.err != nil {
			return pipeline.Result{}, SampleStats{}, fmt.Errorf("core: sampled interval %d: %w", i, o.err)
		}
		if o.usedCkpt {
			st.CheckpointsUsed++
			mIntervalCkpt.Inc()
		} else {
			mIntervalWarmed.Inc()
		}
		well.Add(o.res.IPC)
		st.IntervalIPCs = append(st.IntervalIPCs, o.res.IPC)
		addResult(&agg, &o.res)
	}
	st.IPCMean = well.Mean()
	st.IPCStdDev = well.StdDev()
	st.IPCCI95 = well.CI95()
	agg.IPC = st.IPCMean
	if agg.Cycles > 0 {
		agg.UPC = float64(agg.UOps) / float64(agg.Cycles)
	}
	if agg.Insts > 0 {
		agg.BrMispPKI = 1000 * float64(agg.BrMispredicts) / float64(agg.Insts)
	}
	return agg, st, nil
}

// runInterval simulates one measurement interval whose detailed
// execution starts at absolute instruction s, on a processor driven
// through the panic guard: a panic mid-interval (simulator bug, chaos
// injection at the "core.interval" point) fails that interval, and with
// it the sampled run, instead of crashing the process. idx is the
// interval index, used only to tag telemetry spans.
func runInterval(ctx context.Context, src workload.Source, s int64, idx int, mk ConfigFactory, sp SamplingParams) (r pipeline.Result, usedCkpt bool, err error) {
	stream, err := open(src, s+sp.DetailWarmup+sp.IntervalInsts)
	if err != nil {
		return pipeline.Result{}, false, err
	}
	run := stream
	if ctx.Done() != nil {
		run = &cancelStream{inner: stream, ctx: ctx}
	}
	err = simulate(mk, run, func(p *pipeline.Processor) error {
		if err := faultinject.Fire("core.interval"); err != nil {
			return err
		}
		var err error
		r, usedCkpt, err = measureInterval(telemetry.TraceFrom(ctx), p, stream, s, idx, sp)
		return err
	})
	if es, ok := run.(errStream); ok && es.Err() != nil && err == nil {
		err = fmt.Errorf("core: workload %q: %w", src.Name(), es.Err())
	}
	if cerr := closeStream(stream); cerr != nil && err == nil {
		err = cerr
	}
	return r, usedCkpt, err
}

// measureInterval positions p cheaply at the interval (seek,
// fast-forward or checkpoint restore), functionally warms it up to s,
// then runs in detail to the end of the stream, which runInterval
// opened to end DetailWarmup+IntervalInsts instructions past s, and
// measures the final IntervalInsts. stream is the raw stream p runs
// from, consulted for seeking.
func measureInterval(tr *telemetry.Trace, p *pipeline.Processor, stream isa.Stream, s int64, idx int, sp SamplingParams) (pipeline.Result, bool, error) {
	pos := int64(0) // absolute instruction position reached so far
	usedCkpt := false
	if sp.Checkpoints != nil {
		rsp := tr.Start("restore").SetInterval(idx)
		at, restored, err := sp.Checkpoints.RestoreNearest(p, s)
		if err != nil {
			return pipeline.Result{}, false, err
		}
		if restored {
			if sk, ok := stream.(instSeeker); ok {
				if err := sk.SeekInst(at); err != nil {
					return pipeline.Result{}, false, err
				}
			} else if n := p.FastForward(at); n != at {
				return pipeline.Result{}, false, fmt.Errorf(
					"stream ended at instruction %d, checkpoint is at %d", n, at)
			}
			rsp.SetInsts(at).End()
			pos = at
			usedCkpt = true
		}
	}
	if !usedCkpt {
		// With checkpoints an interval below the first point warms from
		// instruction 0, as the points do, so its state does not depend
		// on which spec built the side-file.
		ff := s - sp.WarmupInsts
		if ff < 0 || sp.Checkpoints != nil {
			ff = 0
		}
		if ff > 0 {
			fsp := tr.Start("fast-forward").SetInterval(idx).SetInsts(ff)
			if sk, ok := stream.(instSeeker); ok {
				if err := sk.SeekInst(ff); err != nil {
					return pipeline.Result{}, false, err
				}
			} else if n := p.FastForward(ff); n != ff {
				return pipeline.Result{}, false, fmt.Errorf(
					"stream ended at instruction %d, interval warmup starts at %d", n, ff)
			}
			fsp.End()
		}
		pos = ff
	}
	if gap := s - pos; gap > 0 {
		wsp := tr.Start("warming").SetInterval(idx).SetInsts(gap)
		if n := p.Warm(gap); n != gap {
			return pipeline.Result{}, false, fmt.Errorf(
				"stream ended %d instructions into a %d-instruction warmup", n, gap)
		}
		wsp.End()
	}
	dsp := tr.Start("detailed").SetInterval(idx).SetInsts(sp.DetailWarmup + sp.IntervalInsts)
	r := p.RunWarm(sp.DetailWarmup, 0)
	dsp.End()
	// The warmup boundary is detected at cycle granularity, so up to a
	// commit-width of instructions can land on the warm side of it — the
	// same slop every RunWarm-based measurement in this package has. A
	// larger shortfall means the stream ended early.
	const warmBoundarySlack = 64
	if got := int64(r.Insts); got > sp.IntervalInsts || got < sp.IntervalInsts-warmBoundarySlack {
		return pipeline.Result{}, false, fmt.Errorf(
			"interval measured %d instructions, want %d", got, sp.IntervalInsts)
	}
	return r, usedCkpt, nil
}

// addResult accumulates src's counters into agg (rates are recomputed
// by the caller after the last interval).
func addResult(agg, src *pipeline.Result) {
	if agg.Config == "" {
		agg.Config = src.Config
		agg.StorageBits = src.StorageBits
	}
	agg.Cycles += src.Cycles
	agg.Insts += src.Insts
	agg.UOps += src.UOps
	agg.FetchedUOps += src.FetchedUOps
	agg.BrCondRetired += src.BrCondRetired
	agg.BrMispredicts += src.BrMispredicts
	agg.BTBMisses += src.BTBMisses
	agg.ValueMispredicts += src.ValueMispredicts
	agg.MemOrderFlushes += src.MemOrderFlushes
	agg.SquashedUOps += src.SquashedUOps
	agg.EarlyExecuted += src.EarlyExecuted
	agg.LateExecuted += src.LateExecuted
	agg.FreeLoadImms += src.FreeLoadImms
	agg.LoadsExecuted += src.LoadsExecuted
	agg.StoreForwards += src.StoreForwards
	agg.L1DMisses += src.L1DMisses
	agg.L2Misses += src.L2Misses
	agg.L1DMSHRMerges += src.L1DMSHRMerges
	agg.L2MSHRMerges += src.L2MSHRMerges
	agg.VP.Eligible += src.VP.Eligible
	agg.VP.Attributed += src.VP.Attributed
	agg.VP.Used += src.VP.Used
	agg.VP.UsedCorrect += src.VP.UsedCorrect
	agg.VP.SpecWindowHits += src.VP.SpecWindowHits
	agg.VP.SpecWindowProbes += src.VP.SpecWindowProbes
	// Per-interval H2P attributions coalesce by PC. Each input is already
	// top-N truncated, so merged counts are lower bounds for PCs outside
	// some interval's top-N; the merged list is left uncapped (it is
	// bounded by intervals × topN) and callers may re-truncate.
	agg.H2P = pipeline.MergeH2P(agg.H2P, src.H2P, 0)
}

func closeStream(s isa.Stream) error {
	if c, ok := s.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// BuildCheckpoints warms one processor continuously over [0, upTo) and
// snapshots its microarchitectural state at every multiple of `every`
// below upTo. Warming is split-invariant, so restoring a point and
// warming or running detailed from it is equivalent to warming straight
// through: one build serves every later sampled run, and an interval
// that starts on a point restores it and warms nothing. Configurations
// whose value predictor cannot snapshot (the idealistic
// per-instruction infrastructure) are reported as an error, and so is a
// panic during the pass (the processor runs inside simulate's guard).
func BuildCheckpoints(src workload.Source, mk ConfigFactory, every, upTo int64) ([]*pipeline.Checkpoint, string, error) {
	if every < 1 || upTo < every {
		return nil, "", fmt.Errorf("core: checkpoint spacing %d over %d instructions", every, upTo)
	}
	stream, err := open(src, upTo)
	if err != nil {
		return nil, "", err
	}
	defer closeStream(stream)
	var (
		name   string
		points []*pipeline.Checkpoint
	)
	named := func() pipeline.Config {
		cfg := mk()
		name = cfg.Name
		return cfg
	}
	err = simulate(named, stream, func(p *pipeline.Processor) error {
		for at := every; at < upTo; at += every {
			if n := p.Warm(every); n != every {
				return fmt.Errorf("core: workload %q ended at instruction %d, checkpoint wanted %d",
					src.Name(), at-every+n, at)
			}
			ck, err := p.Snapshot(at)
			if err != nil {
				return fmt.Errorf("core: checkpoint at instruction %d: %w", at, err)
			}
			points = append(points, ck)
		}
		return nil
	})
	if err != nil {
		return nil, "", err
	}
	if es, ok := stream.(errStream); ok && es.Err() != nil {
		return nil, "", fmt.Errorf("core: workload %q: %w", src.Name(), es.Err())
	}
	return points, name, nil
}
