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
// p, through Processor.Restore, and returns that offset; when none
// qualifies it returns 0 and false and leaves p untouched. Interval
// workers call it concurrently, each with its own processor, which may
// be re-armed (Processor.Rearm) and still hold the tables of its last
// interval until Restore overwrites them.
type CheckpointSource interface {
	RestoreNearest(p *pipeline.Processor, inst int64) (at int64, ok bool, err error)
}

// SampleStats reports the sampling reduction alongside the aggregate
// pipeline.Result; the parameters are the caller's SamplingParams.
type SampleStats struct {
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

// rearmable is implemented by streams a sampling worker keeps across
// its intervals (trace.Reader): each interval moves the stream's end
// with SetLimit and its position with SeekInst.
type rearmable interface {
	isa.Stream
	instSeeker
	SetLimit(n int64)
}

// RunSampled estimates the measured region [warmup, warmup+insts) of a
// workload by detailed simulation of evenly-spaced intervals, sharded
// across up to GOMAXPROCS workers, each of which keeps one processor for
// all its intervals (see sampleWorker). The aggregate Result sums the
// per-interval statistics; its IPC is the mean of per-interval IPCs (the
// quantity the confidence interval in SampleStats describes). The
// reduction is performed in interval order, so the outcome is
// bit-identical regardless of worker scheduling. A run whose context is
// cancelled before its last interval ends returns the context's error.
func RunSampled(ctx context.Context, src workload.Source, warmup, insts int64, mk ConfigFactory, sp SamplingParams) (pipeline.Result, SampleStats, error) {
	return runSampled(ctx, src, warmup, insts, mk, sp, nil)
}

// sampleWorkers is the number of workers RunSampled starts.
func sampleWorkers(sp SamplingParams) int {
	return min(runtime.GOMAXPROCS(0), sp.Intervals)
}

// starts returns the instruction each interval's detailed execution
// starts at, in interval order.
func (sp SamplingParams) starts(warmup, insts int64) []int64 {
	stride := insts / int64(sp.Intervals)
	starts := make([]int64, sp.Intervals)
	for i := range starts {
		starts[i] = warmup + int64(i)*stride
	}
	return starts
}

// runSampled is RunSampled calling ended, when set, with each interval's
// index once the interval has ended, however it ended: run, failed or
// skipped after a cancellation.
func runSampled(ctx context.Context, src workload.Source, warmup, insts int64, mk ConfigFactory, sp SamplingParams, ended func(i int)) (pipeline.Result, SampleStats, error) {
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

	starts := sp.starts(warmup, insts)
	type intervalOut struct {
		res      pipeline.Result
		usedCkpt bool
		err      error
	}
	outs := make([]intervalOut, sp.Intervals)

	nw := sampleWorkers(sp)
	root := telemetry.TraceFrom(ctx).Start("sampled").SetInsts(insts)
	var progMu sync.Mutex
	progDone := 0
	idxCh := make(chan int)
	var wg sync.WaitGroup
	wg.Add(nw)
	for w := 0; w < nw; w++ {
		go func() {
			defer wg.Done()
			var wk sampleWorker
			defer wk.close()
			for i := range idxCh {
				if err := ctx.Err(); err != nil {
					outs[i].err = err
				} else {
					t0 := time.Now() //bebop:allow detlint -- wall time feeds only the interval-latency histogram, never the Result
					res, used, err := wk.runInterval(ctx, src, starts[i], i, mk, sp)
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
				if ended != nil {
					ended(i)
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
	st := SampleStats{IntervalIPCs: make([]float64, 0, sp.Intervals)}
	var agg pipeline.Result
	for i := range outs {
		o := &outs[i]
		if o.err != nil {
			if err := ctx.Err(); err != nil {
				// An interval the cancellation cut short fails on its
				// stream's early end; the cause is the context.
				return pipeline.Result{}, SampleStats{}, err
			}
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

// sampleWorker is what one RunSampled worker keeps across its intervals:
// its trace reader, its processor — with the configuration mk built for
// it, the BeBoP D-VTAGE included, and the state buffer side-file points
// are read into (Processor.PointBuf) — and the wrapper that ends its
// stream when the context is cancelled.
//
// An interval re-arms the kept processor (Processor.Rearm) when it may
// restore a checkpoint: Rearm resets only what a checkpoint does not
// carry, and Restore overwrites the rest. An interval without
// checkpoints, one whose start no point precedes, and the first one
// after a failure get a full Reset with a fresh configuration instead,
// as a refused restore leaves tables half overwritten. A panic drops the
// processor, as simulate drops a seized one, and the next interval
// acquires another from the pool. Opening a trace reader decodes the
// trace's whole frame index, so the first interval opens it and every
// later one re-arms it: SetLimit here, SeekInst in measureInterval. An
// interval that fails closes it, and the next opens a fresh one. A
// generator cannot seek: each interval opens its own and closes it.
type sampleWorker struct {
	reader rearmable
	proc   *pipeline.Processor
	// rearm is set while proc ended its last interval without an error,
	// so its tables hold only what a restore overwrites.
	rearm  bool
	cancel cancelStream
}

// close returns the kept processor to the pool and closes the reader.
func (w *sampleWorker) close() {
	if w.proc != nil {
		w.proc.Release()
		procPool.Put(w.proc)
		w.proc = nil
	}
	closeStream(w.reader)
	w.reader = nil
}

// runInterval simulates one measurement interval whose detailed
// execution starts at absolute instruction s, inside the panic guard: a
// panic mid-interval (simulator bug, chaos injection at the
// "core.interval" point) fails that interval, and with it the sampled
// run, instead of crashing the process. idx is the interval index, used
// only to tag telemetry spans.
func (w *sampleWorker) runInterval(ctx context.Context, src workload.Source, s int64, idx int, mk ConfigFactory, sp SamplingParams) (r pipeline.Result, usedCkpt bool, err error) {
	end := s + sp.DetailWarmup + sp.IntervalInsts
	var stream isa.Stream = w.reader
	if stream == nil {
		if stream, err = open(src, end); err != nil {
			return pipeline.Result{}, false, err
		}
		w.reader, _ = stream.(rearmable)
	} else {
		w.reader.SetLimit(end)
	}
	// The processor reads through the cancellation wrapper only when ctx
	// can be cancelled, as in runStream.
	run := stream
	if ctx.Done() != nil {
		w.cancel = cancelStream{inner: stream, ctx: ctx}
		run = &w.cancel
	}
	p, rearm := w.proc, w.rearm && sp.Checkpoints != nil
	w.proc = nil // seized until the interval returns: a panic drops it
	err = guard(func() error {
		switch {
		case p == nil:
			p = acquireProc(mk(), run)
		case rearm:
			p.Rearm(run)
		default:
			p.Reset(mk(), run)
		}
		err := faultinject.Fire("core.interval")
		if err == nil {
			r, usedCkpt, err = measureInterval(telemetry.TraceFrom(ctx), p, stream, s, idx, sp, func() {
				if rearm {
					p.Reset(mk(), run) // no point overwrites what the last interval left
				}
			})
		}
		w.proc = p // returned, an error included: kept, to be Reset
		return err
	})
	if es, ok := run.(errStream); ok && es.Err() != nil && err == nil {
		err = fmt.Errorf("core: workload %q: %w", src.Name(), es.Err())
	}
	w.rearm = err == nil
	switch {
	case w.reader == nil:
		if cerr := closeStream(stream); cerr != nil && err == nil {
			err = cerr
		}
	case err != nil:
		closeStream(w.reader)
		w.reader = nil
	}
	return r, usedCkpt, err
}

// measureInterval positions p cheaply where the interval's warming
// starts (checkpoint restore, then seek or fast-forward), functionally
// warms it up to s, then runs in detail to the end of the stream, which
// runInterval opened to end DetailWarmup+IntervalInsts instructions
// past s, and measures the final IntervalInsts. stream is the raw
// stream p runs from, consulted for seeking. unrestored is called when
// the run has checkpoints but none lies at or before s, before p warms
// from instruction 0.
func measureInterval(tr *telemetry.Trace, p *pipeline.Processor, stream isa.Stream, s int64, idx int, sp SamplingParams, unrestored func()) (pipeline.Result, bool, error) {
	// Without checkpoints warming starts WarmupInsts before s. With them
	// it starts at the restored point, or at instruction 0 below the
	// first point, as the points do, so the interval's state does not
	// depend on which spec built the side-file.
	start, usedCkpt := max(s-sp.WarmupInsts, 0), false
	var span *telemetry.ActiveSpan
	if sp.Checkpoints == nil {
		span = tr.Start("fast-forward")
	} else {
		span = tr.Start("restore")
		var err error
		if start, usedCkpt, err = sp.Checkpoints.RestoreNearest(p, s); err != nil {
			return pipeline.Result{}, false, err
		}
		if !usedCkpt {
			unrestored()
		}
	}
	// A worker's reader stands where its last interval stopped, so it
	// seeks even to instruction 0.
	if sk, ok := stream.(instSeeker); ok {
		if err := sk.SeekInst(start); err != nil {
			return pipeline.Result{}, false, err
		}
	} else if n := p.FastForward(start); n != start {
		return pipeline.Result{}, false, fmt.Errorf(
			"stream ended at instruction %d, warming starts at %d", n, start)
	}
	if start > 0 {
		span.SetInterval(idx).SetInsts(start).End()
	}
	if gap := s - start; gap > 0 {
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
	agg.Stats.Add(src.Stats)
	agg.VP.Add(src.VP)
	agg.L1DMisses += src.L1DMisses
	agg.L2Misses += src.L2Misses
	agg.L1DMSHRMerges += src.L1DMSHRMerges
	agg.L2MSHRMerges += src.L2MSHRMerges
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
