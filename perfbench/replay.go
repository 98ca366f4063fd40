package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/pprof"
	"time"

	"bebop/internal/core"
	"bebop/internal/isa"
	"bebop/internal/pipeline"
	"bebop/internal/telemetry"
	"bebop/internal/trace"
	"bebop/internal/workload"
	"bebop/sim"
)

// replaySpecOf is the RunSpec of a sampled op over a recorded trace.
func replaySpecOf(s opSpec, tracePath string) sim.RunSpec {
	spec := runSpecOf(s)
	spec.Workload = ""
	spec.Trace = tracePath
	spec.Sampling = &sim.SamplingSpec{Checkpoints: true}
	return spec
}

// recordTraces records opBudget instructions of each benchmark workload
// into dir and returns the trace paths, in benchWorkloads order.
func recordTraces(dir string) (map[string]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	paths := map[string]string{}
	for _, w := range benchWorkloads {
		g, ok := workload.NewByName(w, opBudget)
		if !ok {
			return nil, fmt.Errorf("workload %q not found", w)
		}
		path := filepath.Join(dir, w+trace.Ext)
		f, err := os.Create(path)
		if err != nil {
			return nil, err
		}
		_, _, err = trace.Record(f, g, trace.WriterOptions{Name: w, Seed: g.Profile().Seed})
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, fmt.Errorf("record %s: %w", w, err)
		}
		paths[w] = path
	}
	return paths, nil
}

// sameReport compares two sampled reports up to the trace path, which
// differs between set-up directories.
func sameReport(a, b sim.Report) bool {
	a.Spec.Trace, b.Spec.Trace = filepath.Base(a.Spec.Trace), filepath.Base(b.Spec.Trace)
	return reflect.DeepEqual(a, b)
}

// sim.Run's side-file outcomes. The sampled caller is alone, so the
// increments around one call are that call's: a report alone cannot
// tell a side-file loaded from one rebuilt, because both restore every
// interval.
var (
	ckptReused  = telemetry.Default.Counter(`bebop_sim_checkpoint_files_total{outcome="reused"}`, "")
	ckptRebuilt = telemetry.Default.Counter(`bebop_sim_checkpoint_files_total{outcome="rebuilt"}`, "")
)

// sampledRun is one sim.Run with the side-files it loaded and rebuilt.
func sampledRun(ctx context.Context, spec sim.RunSpec) (rep sim.Report, reused, rebuilt uint64, err error) {
	r0, b0 := ckptReused.Value(), ckptRebuilt.Value()
	rep, err = sim.Run(ctx, spec)
	return rep, ckptReused.Value() - r0, ckptRebuilt.Value() - b0, err
}

// checkSampled is the per-op correctness rule. A set-up run must build
// its side-file (the directory is empty); a timed op must load the one
// its set-up built.
func checkSampled(rep, ref sim.Report, reused, rebuilt uint64, setup bool) string {
	wantReused, wantRebuilt := uint64(1), uint64(0)
	if setup {
		wantReused, wantRebuilt = 0, 1
	}
	switch {
	case rep.Sampling == nil:
		return "report has no sampling block"
	case rep.Sampling.CheckpointsUsed != rep.Sampling.Intervals:
		return fmt.Sprintf("%d of %d intervals restored from checkpoints", rep.Sampling.CheckpointsUsed, rep.Sampling.Intervals)
	case reused != wantReused || rebuilt != wantRebuilt:
		return fmt.Sprintf("loaded %d and rebuilt %d side-files, want %d and %d", reused, rebuilt, wantReused, wantRebuilt)
	case !reflect.DeepEqual(rep, ref):
		return "report differs from the set-up reference"
	}
	return ""
}

// runReplay replays the six recorded traces under both configs with
// checkpointed sampling, one caller, in-process.
func runReplay(ctx context.Context, cfg config) (*outcome, error) {
	specs := allSpecs()
	o := &outcome{}
	var (
		st       setupTimes
		refs0    []sim.Report // set-up 0's reports
		refs     []sim.Report // the current set-up's, which ops must equal
		runSpecs []sim.RunSpec
		paths    map[string]string
		dir      string
		win      window
		delta    = map[string]float64{}
		split    profileSplit
		profs    [][]byte
		rec      *recorder
	)
	if cfg.trace {
		rec = newRecorder()
	}
	order := opOrder(cfg.seed, len(specs), 1<<16)
	op := func(i int) opResult {
		si := order[i%len(order)]
		t0 := time.Now()
		rep, reused, rebuilt, err := sampledRun(ctx, runSpecs[si])
		t1 := time.Now()
		rec.add(i+1, 0, "sim.Run", t0, t1)
		r := opResult{lat: t1.Sub(t0), insts: opBudget}
		switch {
		case err != nil:
			r.why = fmt.Sprintf("%v: %v", specs[si], err)
		default:
			if r.why = checkSampled(rep, refs[si], reused, rebuilt, false); r.why != "" {
				r.why = fmt.Sprintf("%v: %s", specs[si], r.why)
			} else {
				r.ok = true
			}
		}
		return r
	}
	for k := 0; k < setupReps; k++ {
		// Set-up k, in a directory of its own (the previous one is
		// removed first): record the traces, then one warm-up run per
		// spec, which builds and writes its side-file.
		if dir != "" {
			os.RemoveAll(dir)
		}
		dir = filepath.Join(cfg.runDir, fmt.Sprintf("setup%d", k))
		start := time.Now()
		var err error
		if paths, err = recordTraces(dir); err != nil {
			return nil, err
		}
		recorded := time.Now()
		refs = make([]sim.Report, len(specs))
		runSpecs = make([]sim.RunSpec, len(specs))
		for i, s := range specs {
			runSpecs[i] = replaySpecOf(s, paths[s.Workload])
			var reused, rebuilt uint64
			if refs[i], reused, rebuilt, err = sampledRun(ctx, runSpecs[i]); err != nil {
				return nil, fmt.Errorf("set-up run %v: %w", s, err)
			}
			if why := checkSampled(refs[i], refs[i], reused, rebuilt, true); why != "" {
				o.problem("set-up %d %v: %s", k, s, why)
			}
		}
		st.record(time.Since(start), map[string]time.Duration{
			"record": recorded.Sub(start), "warmup": time.Since(recorded),
		})
		if refs0 == nil {
			refs0 = refs
			o.digest = reportDigest(refs0)
		}
		for i := range specs {
			if !sameReport(refs[i], refs0[i]) {
				o.problem("set-up %d: report for %v differs from set-up 0", k, specs[i])
			}
		}
		// Write the traces and side-files back now, so the kernel does
		// not flush them during the slice.
		if err := syncDir(dir); err != nil {
			return nil, err
		}

		// Slice k of the timed window, over this set-up's files.
		runtime.GC() // every slice starts from a collected heap, not the set-up's garbage
		var prof bytes.Buffer
		if cfg.trace {
			if err := pprof.StartCPUProfile(&prof); err != nil {
				return nil, err
			}
		}
		before := inProcessCounters()
		win.slice(cfg, 1, 100, op)
		addDelta(delta, before, inProcessCounters())
		if cfg.trace {
			pprof.StopCPUProfile()
			sp, err := splitProfile(prof.Bytes(), layerBench)
			if err != nil {
				return nil, err
			}
			split.merge(sp)
			profs = append(profs, prof.Bytes())
		}
	}

	if !cfg.trace {
		o.addLoopMetrics("", win.results, win.elapsed, true)
		rss, err := peakRSSMiB("self")
		if err != nil {
			return nil, err
		}
		o.add("peak_rss_mib", "MiB", rss, 0)
		o.add("setup_s", "s", median(st.total), len(st.total))
		return o, nil
	}

	o.addLoopMetrics("traced.", win.results, win.elapsed, true)
	o.add("core.proc_reuse_ratio", "ratio", procReuseRatio(delta), 0)
	o.add("setup.warmup_s", "s", median(st.parts["warmup"]), len(st.total))
	o.add("setup.first_s", "s", st.total[0], 1)
	o.add("setup.record_s", "s", median(st.parts["record"]), len(st.total))
	o.add("trace.record_kips", "kinst/s",
		float64(len(benchWorkloads)*opBudget)/1000/median(st.parts["record"]), len(st.total))
	if err := sampledProbe(ctx, o, rec, runSpecs, paths, filepath.Join(cfg.runDir, "probe")); err != nil {
		return nil, err
	}
	o.addProfileShares(split)
	if err := saveTrace(cfg, rec, profs); err != nil {
		return nil, err
	}
	o.fillAbsent()
	return o, nil
}

// syncDir fsyncs every regular file under dir.
func syncDir(dir string) error {
	return filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		return f.Sync()
	})
}

// sampledProbe times the layers under a sampled run, one call at a time:
// sim.Run → (trace.LoadCheckpoints + core.RunSampled with the side-file
// already loaded), fastest of probeReps repetitions; then the pipeline's
// warming, snapshot and restore modes over pre-decoded instructions,
// trace decode and seek, and the side-file build and write that set-up
// pays.
func sampledProbe(ctx context.Context, o *outcome, rec *recorder, runSpecs []sim.RunSpec, paths map[string]string, scratch string) error {
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return err
	}
	specs := allSpecs()
	var (
		ckptBytes   int64
		buildTotal  time.Duration
		warmInsts   int64
		warmTime    time.Duration
		decodeInsts int64
		decodeTime  time.Duration
		decoded     = map[string]bool{}
		buf         []isa.Inst
		procs       = map[string]*pipeline.Processor{}
	)
	for i, s := range specs {
		op := probeOpBase + i
		root, done := rec.begin(op, 0, "probe")
		norm, err := runSpecs[i].Validate()
		if err != nil {
			return err
		}
		mk, err := factoryOf(s.Config)
		if err != nil {
			return err
		}
		src := trace.NewFileSource(paths[s.Workload])
		ckptPath := trace.CheckpointPath(src.Path, mk().Name)

		var (
			rep    sim.Report
			cf     *trace.CheckpointFile
			res    pipeline.Result
			stats  core.SampleStats
			runErr error
		)
		for r := 0; r < probeReps; r++ {
			rec.time(op, root, "sim.Run", func() { rep, runErr = sim.Run(ctx, runSpecs[i]) })
			if runErr != nil {
				return runErr
			}
			rec.time(op, root, "trace.LoadCheckpoints", func() { cf, runErr = trace.LoadCheckpoints(ckptPath) })
			if runErr != nil {
				return runErr
			}
			sp := core.SamplingParams{
				Intervals:     norm.Sampling.Intervals,
				IntervalInsts: norm.Sampling.IntervalInsts,
				WarmupInsts:   norm.Sampling.Warmup,
				DetailWarmup:  norm.Sampling.DetailWarmup,
				Checkpoints:   cf,
			}
			rec.time(op, root, "core.RunSampled", func() {
				res, stats, runErr = core.RunSampled(ctx, src, *norm.Warmup, norm.Insts, mk, sp)
			})
			if runErr != nil {
				return runErr
			}
		}
		if res.Cycles != rep.Cycles || res.Insts != rep.Insts || stats.CheckpointsUsed != rep.Sampling.CheckpointsUsed {
			o.problem("%v: core.RunSampled with the loaded side-file differs from sim.Run", s)
		}
		fi, err := os.Stat(ckptPath)
		if err != nil {
			return err
		}
		ckptBytes += fi.Size()

		// The side-file build set-up pays: one warming pass, then the write.
		every := norm.Insts / int64(norm.Sampling.Intervals)
		var points []*pipeline.Checkpoint
		var name string
		_, dBuild := rec.time(op, root, "core.BuildCheckpoints", func() {
			points, name, runErr = core.BuildCheckpoints(src, mk, every, *norm.Warmup+norm.Insts)
		})
		if runErr != nil {
			return runErr
		}
		out := &trace.CheckpointFile{TraceName: cf.TraceName, TraceInsts: cf.TraceInsts, ConfigName: name, Points: points}
		_, dWrite := rec.time(op, root, "trace.WriteCheckpoints", func() {
			runErr = trace.WriteCheckpoints(filepath.Join(scratch, filepath.Base(ckptPath)), out)
		})
		if runErr != nil {
			return runErr
		}
		buildTotal += dBuild + dWrite

		// Trace decode (inflate included) and seeks, once per trace.
		if !decoded[s.Workload] {
			decoded[s.Workload] = true
			var n int64
			_, d := rec.time(op, root, "trace.decode", func() {
				r, err := trace.OpenFile(src.Path)
				if err != nil {
					runErr = err
					return
				}
				defer r.Close()
				var in isa.Inst
				for r.Next(&in) {
					n++
				}
				runErr = r.Err()
			})
			if runErr != nil {
				return runErr
			}
			decodeInsts += n
			decodeTime += d
			r, err := trace.OpenFile(src.Path)
			if err != nil {
				return err
			}
			for k := 0; k < norm.Sampling.Intervals; k++ {
				at := *norm.Warmup + int64(k)*every
				rec.time(op, root, "trace.seek", func() { runErr = r.SeekInst(at) })
				if runErr != nil {
					r.Close()
					return runErr
				}
			}
			r.Close()
		}

		// Pipeline modes over pre-decoded instructions.
		if buf, err = drain(src, opBudget, buf); err != nil {
			return err
		}
		stream := &sliceStream{insts: buf}
		p := procs[s.Config]
		if p == nil {
			p = pipeline.New(mk(), stream)
			procs[s.Config] = p
		} else {
			p.Reset(mk(), stream)
		}
		var n int64
		_, d := rec.time(op, root, "pipeline.Warm", func() { n = p.Warm(opBudget) })
		warmInsts += n
		warmTime += d
		rec.time(op, root, "pipeline.Snapshot", func() { _, runErr = p.Snapshot(n) })
		if runErr != nil {
			return runErr
		}
		p.Reset(mk(), &sliceStream{})
		rec.time(op, root, "pipeline.Restore", func() { runErr = p.Restore(cf.Points[len(cf.Points)/2]) })
		if runErr != nil {
			return runErr
		}
		p.Release()
		done()
	}
	spans := rec.snapshot()
	n := len(specs)
	o.add("sim.self_ms", "ms", median(msOf(depthSelf(spans, "sim.Run", "trace.LoadCheckpoints", "core.RunSampled"))), n)
	o.add("core.sampled_ms", "ms", median(msOf(fastest(spans, "core.RunSampled"))), n)
	o.add("trace.ckpt_load_ms", "ms", median(msOf(fastest(spans, "trace.LoadCheckpoints"))), n)
	o.add("trace.ckpt_mib", "MiB", float64(ckptBytes)/float64(n)/(1<<20), 0)
	o.add("trace.ckpt_write_ms", "ms", median(msOf(durations(spans, "trace.WriteCheckpoints"))), n)
	o.add("setup.ckpt_build_s", "s", buildTotal.Seconds(), n)
	o.add("trace.decode_kips", "kinst/s", float64(decodeInsts)/1000/decodeTime.Seconds(), len(decoded))
	seeks := durations(spans, "trace.seek")
	o.add("trace.seek_ms", "ms", median(msOf(seeks)), len(seeks))
	o.add("pipeline.warm_kips", "kinst/s", float64(warmInsts)/1000/warmTime.Seconds(), n)
	o.add("pipeline.snapshot_ms", "ms", median(msOf(durations(spans, "pipeline.Snapshot"))), n)
	o.add("pipeline.restore_ms", "ms", median(msOf(durations(spans, "pipeline.Restore"))), n)
	return nil
}
