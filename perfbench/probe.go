package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"strings"
	"time"

	"bebop/internal/core"
	"bebop/internal/isa"
	"bebop/internal/pipeline"
	"bebop/internal/telemetry"
	"bebop/internal/workload"
	"bebop/sim"
)

// layerMetric is one per-layer metric of a traced run, with the
// workloads that exercise it; a traced run of any other workload prints
// it as 0 and says why.
type layerMetric struct {
	name, unit, better string
	on                 []string
}

var (
	allWorkloads = []string{"serve", "sweep", "replay-sampled"}
	detailedOnly = []string{"serve", "sweep"}
	replayOnly   = []string{"replay-sampled"}
)

// layerMetrics lists every per-layer metric, in the order printed.
// BENCHMARK.json's per_layer list matches it (pinned by a test).
var layerMetrics = []layerMetric{
	{"traced.throughput_kips", "kinst/s", "higher", allWorkloads},
	{"traced.latency_p50_ms", "ms", "lower", allWorkloads},
	{"traced.latency_p90_ms", "ms", "lower", allWorkloads},
	{"serve.self_ms", "ms", "lower", []string{"serve"}},
	{"serve.cpu_share", "share", "lower", allWorkloads},
	{"admission.shed", "count", "lower", []string{"serve"}},
	{"sim.self_ms", "ms", "lower", allWorkloads},
	{"sim.cpu_share", "share", "lower", allWorkloads},
	{"engine.hit_ratio", "ratio", "higher", []string{"sweep"}},
	{"engine.runs", "count", "lower", []string{"sweep"}},
	{"engine.parallel_efficiency", "ratio", "higher", []string{"sweep"}},
	{"engine.straggler_ms", "ms", "lower", []string{"sweep"}},
	{"engine.cpu_share", "share", "lower", allWorkloads},
	{"core.self_ms", "ms", "lower", detailedOnly},
	{"core.proc_reuse_ratio", "ratio", "higher", allWorkloads},
	{"core.sampled_ms", "ms", "lower", replayOnly},
	{"core.cpu_share", "share", "lower", allWorkloads},
	{"pipeline.detailed_kips.baseline", "kinst/s", "higher", detailedOnly},
	{"pipeline.detailed_kips.eole-bebop", "kinst/s", "higher", detailedOnly},
	{"pipeline.ns_per_cycle", "ns/cycle", "lower", detailedOnly},
	{"pipeline.allocs_per_kinst", "allocs/kinst", "lower", detailedOnly},
	{"pipeline.squash_share", "ratio", "lower", detailedOnly},
	{"pipeline.cpu_share", "share", "lower", allWorkloads},
	{"pipeline.warm_kips", "kinst/s", "higher", replayOnly},
	{"pipeline.restore_ms", "ms", "lower", replayOnly},
	{"pipeline.snapshot_ms", "ms", "lower", replayOnly},
	{"branch.cpu_share", "share", "lower", allWorkloads},
	{"predictor.cpu_share", "share", "lower", allWorkloads},
	{"bebop.cpu_share", "share", "lower", allWorkloads},
	{"cache.cpu_share", "share", "lower", allWorkloads},
	{"workload.gen_kips", "kinst/s", "higher", detailedOnly},
	{"workload.cpu_share", "share", "lower", allWorkloads},
	{"trace.decode_kips", "kinst/s", "higher", replayOnly},
	{"trace.seek_ms", "ms", "lower", replayOnly},
	{"trace.ckpt_load_ms", "ms", "lower", replayOnly},
	{"trace.ckpt_mib", "MiB", "lower", replayOnly},
	{"trace.cpu_share", "share", "lower", allWorkloads},
	{"trace.ckpt_cpu_share", "share", "lower", allWorkloads},
	{"trace.record_kips", "kinst/s", "higher", replayOnly},
	{"trace.ckpt_write_ms", "ms", "lower", replayOnly},
	{"setup.record_s", "s", "lower", replayOnly},
	{"setup.ckpt_build_s", "s", "lower", replayOnly},
	{"setup.server_ready_ms", "ms", "lower", []string{"serve"}},
	{"setup.warmup_s", "s", "lower", allWorkloads},
	{"setup.first_s", "s", "lower", allWorkloads},
	{"runtime.gc_cpu_share", "share", "lower", allWorkloads},
	{"runtime.alloc_cpu_share", "share", "lower", allWorkloads},
	{"bench.cpu_share", "share", "lower", allWorkloads},
	{"other.cpu_share", "share", "lower", allWorkloads},
}

// fillAbsent adds every per-layer metric the run did not measure, as 0
// with the workloads that do measure it.
func (o *outcome) fillAbsent() {
	have := map[string]bool{}
	for _, m := range o.metrics {
		have[m.Name] = true
	}
	for _, lm := range layerMetrics {
		if !have[lm.name] {
			o.na(lm.name, lm.unit, "measured on "+strings.Join(lm.on, ", ")+" only")
		}
	}
}

// addProfileShares reports the CPU-profile split.
func (o *outcome) addProfileShares(p profileSplit) {
	n := int(p.Total / int64(10*time.Millisecond)) // pprof samples at 100 Hz
	add := func(name string, layers ...string) {
		var v float64
		for _, l := range layers {
			v += p.share(l)
		}
		o.add(name, "share", v, n)
	}
	add("serve.cpu_share", layerServe, layerAdmission)
	add("sim.cpu_share", layerSim)
	add("engine.cpu_share", layerEngine)
	add("core.cpu_share", layerCore)
	add("pipeline.cpu_share", layerPipeline)
	add("branch.cpu_share", layerBranch)
	add("predictor.cpu_share", layerPredictor)
	add("bebop.cpu_share", layerBeBoP)
	add("cache.cpu_share", layerCache)
	add("workload.cpu_share", layerWorkload)
	add("trace.cpu_share", layerTrace)
	add("runtime.gc_cpu_share", layerGC)
	add("runtime.alloc_cpu_share", layerAlloc)
	add("bench.cpu_share", layerBench)
	add("other.cpu_share", layerOther, layerTools)
	var ck float64
	if p.Total > 0 {
		ck = float64(p.Ckpt) / float64(p.Total)
	}
	o.add("trace.ckpt_cpu_share", "share", ck, n)
}

// scrapeCounters parses a Prometheus text exposition into name{labels}
// → value.
func scrapeCounters(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// inProcessCounters scrapes the benchmark process's own registry.
func inProcessCounters() map[string]float64 {
	var buf bytes.Buffer
	telemetry.Default.WritePrometheus(&buf)
	m, _ := scrapeCounters(&buf)
	return m
}

const (
	procReused = `bebop_core_proc_pool_total{outcome="reused"}`
	procNew    = `bebop_core_proc_pool_total{outcome="new"}`
)

// addDelta adds the counter increments between two scrapes to acc.
func addDelta(acc, before, after map[string]float64) {
	for k, v := range after {
		acc[k] += v - before[k]
	}
}

// procReuseRatio is the share of processor acquisitions the pool served,
// from counter increments.
func procReuseRatio(delta map[string]float64) float64 {
	reused, fresh := delta[procReused], delta[procNew]
	if reused+fresh == 0 {
		return 0
	}
	return reused / (reused + fresh)
}

// sliceStream replays pre-generated instructions, so a probe can time
// the pipeline without the generator or the trace decoder under it.
type sliceStream struct {
	insts []isa.Inst
	i     int
}

func (s *sliceStream) Next(in *isa.Inst) bool {
	if s.i >= len(s.insts) {
		return false
	}
	*in = s.insts[s.i]
	s.i++
	return true
}

// drain reads up to n instructions of src into buf (reused across
// calls) and returns them.
func drain(src workload.Source, n int64, buf []isa.Inst) ([]isa.Inst, error) {
	st, err := src.Open(n)
	if err != nil {
		return nil, err
	}
	buf = buf[:0]
	var in isa.Inst
	for int64(len(buf)) < n && st.Next(&in) {
		buf = append(buf, in)
	}
	if c, ok := st.(io.Closer); ok {
		c.Close()
	}
	return buf, nil
}

// factoryOf resolves a benchmark config name ("baseline",
// "eole-bebop/Medium") to the core factory sim would use.
func factoryOf(config string) (core.ConfigFactory, error) {
	c, pred, _ := strings.Cut(config, "/")
	return core.NamedFactory(c, pred)
}

// runSpecOf is the RunSpec of a detailed op.
func runSpecOf(s opSpec) sim.RunSpec {
	w := int64(opWarmup)
	return sim.RunSpec{Workload: s.Workload, Config: s.Config, Insts: opInsts, Warmup: &w}
}

// probeOpBase numbers probe ops apart from the timed window's ops.
const probeOpBase = 1_000_000

// probeReps is how often a probe repeats each call; the fastest
// repetition counts.
const probeReps = 3

// detailedProbe times each detailed spec at successive depths, one call
// at a time: POST /v1/runs (when post is set) → sim.Run →
// core.RunSourceCtx → Processor.RunWarm over pre-generated instructions
// → the generator alone. Each depth is a span of the spec's probe op;
// self time is the difference between adjacent depths.
func detailedProbe(ctx context.Context, o *outcome, rec *recorder, post func(i int) error) error {
	specs := allSpecs()
	cat := workload.DefaultCatalog()
	// Per-spec counts from the last repetition; times come from the spans.
	type specAcc struct {
		insts, cycles, mallocs, squashed, fetched uint64
		runWarm, gen                              time.Duration
	}
	accs := make([]specAcc, len(specs))
	procs := map[string]*pipeline.Processor{}
	var buf []isa.Inst
	for rep := 0; rep < probeReps; rep++ {
		for i, s := range specs {
			op := probeOpBase + i
			src, ok := cat.Lookup(s.Workload)
			if !ok {
				return fmt.Errorf("workload %q not in the catalog", s.Workload)
			}
			mk, err := factoryOf(s.Config)
			if err != nil {
				return err
			}
			if buf, err = drain(src, opBudget, buf); err != nil {
				return err
			}
			var (
				coreRes pipeline.Result
				runErr  error
			)
			root, done := rec.begin(op, 0, "probe")
			if post != nil {
				rec.time(op, root, "serve.post", func() { runErr = post(i) })
				if runErr != nil {
					return fmt.Errorf("probe POST %v: %w", s, runErr)
				}
			}
			rec.time(op, root, "sim.Run", func() { _, runErr = sim.Run(ctx, runSpecOf(s)) })
			if runErr != nil {
				return fmt.Errorf("probe sim.Run %v: %w", s, runErr)
			}
			rec.time(op, root, "core.RunSourceCtx", func() {
				coreRes, runErr = core.RunSourceCtx(ctx, src, opWarmup, opInsts, mk)
			})
			if runErr != nil {
				return fmt.Errorf("probe core.RunSourceCtx %v: %w", s, runErr)
			}

			stream := &sliceStream{insts: buf}
			p := procs[s.Config]
			if p == nil {
				p = pipeline.New(mk(), stream)
				procs[s.Config] = p
			} else {
				p.Reset(mk(), stream)
			}
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			var res pipeline.Result
			_, dWarm := rec.time(op, root, "pipeline.RunWarm", func() { res = p.RunWarm(opWarmup, 0) })
			runtime.ReadMemStats(&ms1)
			p.Release()
			if res != coreRes {
				o.problem("%v: Processor.RunWarm over pre-generated instructions differs from core.RunSourceCtx", s)
			}

			_, dGen := rec.time(op, root, "workload.source", func() {
				st, err := src.Open(opBudget)
				if err != nil {
					runErr = err
					return
				}
				var in isa.Inst
				for st.Next(&in) {
				}
			})
			if runErr != nil {
				return runErr
			}
			done()

			a := &accs[i]
			if rep == 0 || dWarm < a.runWarm {
				a.runWarm = dWarm
			}
			if rep == 0 || dGen < a.gen {
				a.gen = dGen
			}
			a.insts = uint64(len(buf))
			a.cycles = uint64(res.Cycles)
			a.mallocs = ms1.Mallocs - ms0.Mallocs
			a.squashed = res.SquashedUOps
			a.fetched = res.FetchedUOps
		}
	}
	spans := rec.snapshot()
	if post != nil {
		o.add("serve.self_ms", "ms", median(msOf(depthSelf(spans, "serve.post", "sim.Run"))), len(specs))
	}
	o.add("sim.self_ms", "ms", median(msOf(depthSelf(spans, "sim.Run", "core.RunSourceCtx"))), len(specs))
	o.add("core.self_ms", "ms", median(msOf(depthSelf(spans, "core.RunSourceCtx", "pipeline.RunWarm", "workload.source"))), len(specs))
	var all specAcc
	byConfig := map[string]*specAcc{}
	for i, s := range specs {
		a := accs[i]
		c := byConfig[s.Config]
		if c == nil {
			c = &specAcc{}
			byConfig[s.Config] = c
		}
		for _, t := range []*specAcc{c, &all} {
			t.insts += a.insts
			t.cycles += a.cycles
			t.mallocs += a.mallocs
			t.squashed += a.squashed
			t.fetched += a.fetched
			t.runWarm += a.runWarm
			t.gen += a.gen
		}
	}
	for _, c := range benchConfigs {
		a := byConfig[c]
		name := "pipeline.detailed_kips." + strings.SplitN(c, "/", 2)[0]
		o.add(name, "kinst/s", float64(a.insts)/1000/a.runWarm.Seconds(), len(benchWorkloads))
	}
	o.add("pipeline.ns_per_cycle", "ns/cycle", float64(all.runWarm)/float64(all.cycles), len(specs))
	o.add("pipeline.allocs_per_kinst", "allocs/kinst", float64(all.mallocs)/(float64(all.insts)/1000), len(specs))
	o.add("pipeline.squash_share", "ratio", float64(all.squashed)/float64(all.fetched), 0)
	o.add("workload.gen_kips", "kinst/s", float64(all.insts)/1000/all.gen.Seconds(), len(specs))
	return nil
}
