// Command bebop-sim runs a single workload under a single processor
// configuration and prints the detailed result: cycle counts, IPC, branch
// and value prediction statistics. It is a thin front end over the
// bebop/sim SDK: flags assemble a sim.RunSpec, or -spec loads one from a
// JSON file — the same spec `POST /v1/runs` on bebop-serve consumes —
// and replaying a spec reproduces its run bit-identically.
//
// Usage:
//
//	bebop-sim -bench swim -config eole-bebop -predictor Medium -n 200000
//	bebop-sim -trace swim-100k.bbt -config baseline -n 50000
//	bebop-sim -trace-dir traces -bench swim-mutated -n 50000
//	bebop-sim -spec run.json
//	bebop-sim -bench mcf -config eole-bebop/Large -print-spec > run.json
//	bebop-sim -bench probe/vp-stride/16 -config eole-bebop -predictor Medium
//	bebop-sim -list
//
// Configurations:
//
//	baseline      Baseline_6_60 (no VP)
//	baseline-vp   Baseline_VP_6_60 (-predictor selects the predictor,
//	              see -help for the accepted names)
//	eole          EOLE_4_60 with a per-instruction D-VTAGE
//	eole-bebop    EOLE_4_60 with BeBoP (-predictor selects a Table III
//	              config: Small_4p, Small_6p, Medium, Large)
//	eole-bebop-custom  EOLE_4_60 with the -npred/-base/-tagged/-stride/
//	              -win/-policy geometry
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"bebop/internal/cli"
	"bebop/sim"
)

func main() {
	bench := flag.String("bench", "swim", "workload name: Table II benchmark or -trace-dir trace (see -list)")
	tracePath := flag.String("trace", "", "replay this .bbt trace file instead of -bench")
	traceDir := flag.String("trace-dir", "", "directory of .bbt traces to add as named workloads")
	config := flag.String("config", "baseline",
		strings.Join(sim.Configs(), " | ")+" | eole-bebop-custom")
	pred := flag.String("predictor", "",
		"predictor for baseline-vp ("+strings.Join(sim.Predictors(), ", ")+
			") or Table III config for eole-bebop ("+strings.Join(sim.BeBoPConfigs(), ", ")+")")
	n := flag.Int64("n", 200_000, "dynamic instructions to simulate")
	sample := flag.Bool("sample", false, "estimate the run by sampled simulation (SMARTS-style intervals with a 95% CI)")
	sampleIntervals := flag.Int("sample-intervals", 0, "sampled: number of measurement intervals (0 = default 20)")
	sampleInsts := flag.Int64("sample-insts", 0, "sampled: detailed instructions per interval (0 = n/(10*intervals))")
	sampleWarmup := flag.Int64("sample-warmup", 0, "sampled: functional-warming instructions before each interval (0 = 8x interval)")
	sampleDetail := flag.Int64("sample-detail", 0, "sampled: detailed-warmup instructions before measuring (0 = interval/4)")
	sampleCkpt := flag.Bool("sample-checkpoints", false, "sampled: build/reuse the trace's checkpoint side-file (-trace only)")
	specPath := flag.String("spec", "", "run this JSON RunSpec file (replaces the selection flags)")
	printSpec := flag.Bool("print-spec", false, "print the normalized RunSpec as JSON and exit without running")
	asJSON := flag.Bool("json", false, "emit the result as JSON")
	list := flag.Bool("list", false, "list workloads and exit")
	npred := flag.Int("npred", 6, "custom: predictions per entry")
	base := flag.Int("base", 2048, "custom: base component entries")
	tagged := flag.Int("tagged", 256, "custom: tagged component entries")
	stride := flag.Int("stride", 64, "custom: stride bits")
	win := flag.Int("win", -1, "custom: speculative window entries (-1 inf, 0 none)")
	pol := flag.String("policy", "Ideal", "custom: recovery policy ("+strings.Join(sim.Policies(), ", ")+")")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the simulation to this file")
	memprofile := flag.String("memprofile", "", "write a post-run heap profile to this file")
	telemetryFlag := flag.Bool("telemetry", false,
		"record run telemetry: print the phase span tree and a metrics snapshot to stderr (with -json the report also carries the telemetry block)")
	logFormat := cli.AddLogFormat(flag.CommandLine)
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()

	if *version {
		fmt.Println(sim.Version())
		return
	}
	if err := cli.InitLogging(*logFormat); err != nil {
		fatal(err)
	}

	if *list {
		infos, err := sim.ListWorkloads(*traceDir)
		if err != nil {
			fatal(err)
		}
		for _, w := range infos {
			fmt.Println(listLine(w))
		}
		return
	}

	var sampling *sim.SamplingSpec
	if *sample {
		sampling = &sim.SamplingSpec{
			Intervals:     *sampleIntervals,
			IntervalInsts: *sampleInsts,
			Warmup:        *sampleWarmup,
			DetailWarmup:  *sampleDetail,
			Checkpoints:   *sampleCkpt,
		}
	}
	spec, err := buildSpec(*specPath, *bench, *tracePath, *traceDir, *config, *pred, *n,
		*npred, *base, *tagged, *stride, *win, *pol, sampling)
	if err != nil {
		fatal(err)
	}

	if *printSpec {
		norm, err := spec.Validate()
		if err != nil {
			fatal(err)
		}
		blob, err := norm.JSON()
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(blob)
		return
	}

	stopCPU, err := sim.StartCPUProfile(*cpuprofile)
	if err != nil {
		fatal(err)
	}
	var opts []sim.Option
	if *telemetryFlag {
		opts = append(opts, sim.WithTelemetry())
	}
	start := time.Now()
	rep, err := sim.FromSpec(spec, opts...).Run(context.Background())
	elapsed := time.Since(start)
	stopCPU()
	if err != nil {
		fatal(err)
	}
	if err := sim.WriteHeapProfile(*memprofile); err != nil {
		fatal(err)
	}
	if *telemetryFlag {
		// Telemetry goes to stderr so the report on stdout stays pipeable.
		fmt.Fprintln(os.Stderr, "telemetry spans:")
		if err := sim.WriteSpanTree(os.Stderr, rep.Telemetry); err != nil {
			fatal(err)
		}
		fmt.Fprintln(os.Stderr, "metrics snapshot:")
		if err := sim.WriteMetrics(os.Stderr); err != nil {
			fatal(err)
		}
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fatal(err)
		}
		return
	}
	printReport(rep)
	fmt.Printf("sim wall time     %s\n", elapsed.Round(time.Millisecond))
}

// buildSpec assembles the RunSpec from -spec or the selection flags.
// Mixing both is an error: a spec file is the complete run description.
func buildSpec(specPath, bench, tracePath, traceDir, config, pred string, n int64,
	npred, base, tagged, stride, win int, pol string, sampling *sim.SamplingSpec) (sim.RunSpec, error) {

	selectionFlags := map[string]bool{
		"bench": true, "trace": true, "trace-dir": true, "config": true,
		"predictor": true, "n": true, "npred": true, "base": true,
		"tagged": true, "stride": true, "win": true, "policy": true,
		"sample": true, "sample-intervals": true, "sample-insts": true,
		"sample-warmup": true, "sample-detail": true, "sample-checkpoints": true,
	}
	var conflicting []string
	benchSet, sampleSet := false, false
	flag.Visit(func(f *flag.Flag) {
		if selectionFlags[f.Name] {
			conflicting = append(conflicting, "-"+f.Name)
		}
		switch f.Name {
		case "bench":
			benchSet = true
		case "sample-intervals", "sample-insts", "sample-warmup",
			"sample-detail", "sample-checkpoints":
			sampleSet = true
		}
	})
	if sampling == nil && sampleSet {
		return sim.RunSpec{}, fmt.Errorf("the -sample-* knobs need -sample to enable sampled simulation")
	}
	if specPath != "" {
		if len(conflicting) > 0 {
			return sim.RunSpec{}, fmt.Errorf("-spec is a complete run description; drop %s (edit the spec file instead)",
				strings.Join(conflicting, ", "))
		}
		return sim.LoadRunSpec(specPath)
	}

	spec := sim.RunSpec{
		TraceDir:  traceDir,
		Predictor: pred,
		Insts:     n,
	}
	switch {
	case tracePath != "" && benchSet:
		return sim.RunSpec{}, fmt.Errorf("-bench and -trace are mutually exclusive")
	case tracePath != "":
		spec.Trace = tracePath
	default:
		spec.Workload = bench
	}
	if config == "eole-bebop-custom" {
		spec.BeBoP = &sim.BeBoPConfig{
			NPred: npred, BaseEntries: base, TaggedEntries: tagged,
			StrideBits: stride, WindowSize: win, Policy: pol,
		}
	} else {
		spec.Config = config
	}
	spec.Sampling = sampling
	return spec, nil
}

// listLine formats one -list entry by its kind: a trace with its path,
// a probe grid point with its axis and pressure, and a Table II profile
// with its suite, type and paper IPC.
func listLine(w sim.WorkloadInfo) string {
	switch w.Kind {
	case "trace":
		return fmt.Sprintf("%-12s trace    %s", w.Name, w.Path)
	case "probe":
		return fmt.Sprintf("%-12s probe    %s=%d", w.Name, w.Axis, w.Pressure)
	}
	typ := "FP "
	if w.INT {
		typ = "INT"
	}
	return fmt.Sprintf("%-12s %-8s %s paper-IPC=%.3f", w.Name, w.Suite, typ, w.PaperIPC)
}

func fatal(err error) { cli.Fatal(err) }

func printReport(r sim.Report) {
	fmt.Printf("config            %s\n", r.Config)
	fmt.Printf("workload          %s\n", r.Workload)
	fmt.Printf("cycles            %d\n", r.Cycles)
	fmt.Printf("instructions      %d\n", r.Insts)
	fmt.Printf("uops              %d\n", r.UOps)
	if s := r.Sampling; s != nil {
		fmt.Printf("IPC               %.3f ± %.3f (95%% CI, %d intervals x %d insts)\n",
			s.IPCMean, s.IPCCI95, s.Intervals, s.IntervalInsts)
		fmt.Printf("checkpoints used  %d\n", s.CheckpointsUsed)
	} else {
		fmt.Printf("IPC               %.3f\n", r.IPC)
	}
	fmt.Printf("uops/cycle        %.3f\n", r.UPC)
	fmt.Printf("branch MPKI       %.2f\n", r.BranchMPKI)
	fmt.Printf("L1D misses        %d (+%d MSHR merges)\n", r.L1DMisses, r.L1DMSHRMerges)
	fmt.Printf("L2 misses         %d (+%d MSHR merges)\n", r.L2Misses, r.L2MSHRMerges)
	fmt.Printf("squashed uops     %d\n", r.SquashedUOps)
	fmt.Printf("value mispredicts %d\n", r.ValueMispredicts)
	fmt.Printf("memorder flushes  %d\n", r.MemOrderFlushes)
	if r.VPStorageBits > 0 {
		fmt.Printf("VP storage        %s\n", r.VPStorage())
		fmt.Printf("VP eligible       %d\n", r.VP.Eligible)
		fmt.Printf("VP used           %d (coverage %.1f%%)\n", r.VP.Used, 100*r.VP.Coverage)
		fmt.Printf("VP accuracy       %.3f%%\n", 100*r.VP.Accuracy)
		fmt.Printf("specwin hits      %d / %d probes\n", r.VP.SpecWindowHits, r.VP.SpecWindowProbes)
		fmt.Printf("early|late|ldimm  %d | %d | %d\n", r.EarlyExecuted, r.LateExecuted, r.FreeLoadImms)
	}
}
