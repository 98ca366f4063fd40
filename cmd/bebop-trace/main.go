// Command bebop-trace records and inspects binary .bbt instruction
// traces (internal/trace).
//
// Usage:
//
//	bebop-trace record -bench swim -n 100000 -o swim-100k.bbt
//	bebop-trace info   -trace swim-100k.bbt
//	bebop-trace checkpoint -trace swim-100k.bbt -config eole-bebop -predictor Medium
//	bebop-trace dump   -bench swim -n 40
//	bebop-trace dump   -trace swim-100k.bbt -summary
//
// record serializes a synthetic Table II workload as a trace; info
// prints the self-describing header and frame geometry; checkpoint
// pre-builds a trace's warm-state side-file for one configuration; dump
// is the original listing/summary view, now over either a generator or
// a trace. To run a processor from a trace, use bebop-sim -trace, whose
// result is bit-identical to simulating the generator the trace was
// recorded from.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"bebop/internal/cli"
	"bebop/internal/core"
	"bebop/internal/isa"
	"bebop/internal/trace"
	"bebop/internal/util"
	"bebop/internal/workload"
	"bebop/internal/workload/probe"
	"bebop/sim"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "record":
		err = cmdRecord(os.Args[2:])
	case "info":
		err = cmdInfo(os.Args[2:])
	case "checkpoint":
		err = cmdCheckpoint(os.Args[2:])
	case "dump":
		err = cmdDump(os.Args[2:])
	case "version", "-version", "--version":
		fmt.Println(sim.Version())
		return
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "unknown subcommand %q\n\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		cli.Fatal(err)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `bebop-trace <subcommand> [flags]

Subcommands:
  record   record a synthetic workload as a .bbt trace
  info     print a trace's header and frame geometry
  checkpoint  build a trace's warm-state checkpoint side-file for a config
  dump     list instructions or per-class totals (generator or trace)
  version  print version and exit

Run 'bebop-trace <subcommand> -h' for flags.
`)
}

// parseFlags finishes a subcommand's flag set: it registers the shared
// -log-format flag, parses args and installs the diagnostic logger.
func parseFlags(fs *flag.FlagSet, args []string) error {
	format := cli.AddLogFormat(fs)
	fs.Parse(args)
	return cli.InitLogging(*format)
}

// openBench builds the instruction stream for a workload name: a
// Table II generator, or a "probe/<family>/<pressure>" probe stream.
// The returned seed is what a recording should stamp in its header
// (probe streams are fully determined by their name, so it is 0).
func openBench(bench string, n int64) (isa.Stream, uint64, error) {
	if probe.IsProbeName(bench) {
		src, err := probe.FromName(bench)
		if err != nil {
			return nil, 0, err
		}
		st, err := src.Open(n)
		return st, 0, err
	}
	g, ok := workload.NewByName(bench, n)
	if !ok {
		return nil, 0, util.UnknownName("workload", bench, workload.Names())
	}
	return g, g.Profile().Seed, nil
}

func cmdRecord(args []string) error {
	fs := flag.NewFlagSet("bebop-trace record", flag.ExitOnError)
	bench := fs.String("bench", "swim", "Table II benchmark or probe/<family>/<pressure> name")
	n := fs.Int64("n", 100_000, "instructions to record")
	out := fs.String("o", "", "output path (default <bench>-<n>.bbt)")
	frame := fs.Int("frame", trace.DefaultFrameInsts, "instructions per frame")
	if err := parseFlags(fs, args); err != nil {
		return err
	}

	g, seed, err := openBench(*bench, *n)
	if err != nil {
		return err
	}
	path := *out
	if path == "" {
		// Probe names contain '/': flatten them for the default filename.
		path = fmt.Sprintf("%s-%d%s", strings.ReplaceAll(*bench, "/", "-"), *n, trace.Ext)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	insts, uops, err := trace.Record(f, g, trace.WriterOptions{
		Name:       *bench,
		Seed:       seed,
		FrameInsts: *frame,
	})
	if err == nil {
		err = f.Close()
	} else {
		f.Close()
	}
	if err != nil {
		// Remove the partial file: a truncated .bbt left behind would
		// abort every later -trace-dir catalog scan of this directory.
		os.Remove(path)
		return err
	}
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	fmt.Printf("recorded %s: %d insts, %d µ-ops, %d bytes (%.2f B/inst)\n",
		path, insts, uops, st.Size(), float64(st.Size())/float64(insts))
	return nil
}

func cmdInfo(args []string) error {
	fs := flag.NewFlagSet("bebop-trace info", flag.ExitOnError)
	path := fs.String("trace", "", ".bbt trace to describe (required)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *path == "" {
		return fmt.Errorf("info: -trace is required")
	}
	r, err := trace.OpenFile(*path)
	if err != nil {
		return err
	}
	defer r.Close()
	st, err := os.Stat(*path)
	if err != nil {
		return err
	}
	h := r.Header()
	fmt.Printf("trace        %s\n", *path)
	fmt.Printf("format       .bbt version %d\n", trace.Version)
	fmt.Printf("workload     %s (seed %#x)\n", h.Name, h.Seed)
	fmt.Printf("insts        %d\n", h.Insts)
	fmt.Printf("uops         %d (%.2f µ-ops/inst)\n", h.UOps, ratio(h.UOps, h.Insts))
	fmt.Printf("frames       %d\n", r.Frames())
	fmt.Printf("bytes        %d (%.2f B/inst)\n", st.Size(), ratio(uint64(st.Size()), h.Insts))
	return nil
}

// cmdCheckpoint builds the checkpoint side-file sampled runs restore
// from: one continuous functional-warming pass over the trace, a
// snapshot at every multiple of -every, written next to the trace. Sampled
// runs build the file on demand anyway (sim caches it transparently);
// this subcommand pre-pays the pass, e.g. before handing a trace
// directory to bebop-serve.
func cmdCheckpoint(args []string) error {
	fs := flag.NewFlagSet("bebop-trace checkpoint", flag.ExitOnError)
	path := fs.String("trace", "", ".bbt trace to checkpoint (required)")
	config := fs.String("config", "baseline", strings.Join(sim.Configs(), " | "))
	pred := fs.String("predictor", "",
		"predictor ("+strings.Join(sim.Predictors(), ", ")+") or Table III config")
	every := fs.Int64("every", 0, "instructions between snapshots (0 = trace length / 64)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}

	if *path == "" {
		return fmt.Errorf("checkpoint: -trace is required")
	}
	r, err := trace.OpenFile(*path)
	if err != nil {
		return err
	}
	hdr := r.Header()
	r.Close()
	upTo := int64(hdr.Insts)
	if upTo == 0 {
		return fmt.Errorf("checkpoint: %s holds no instructions", *path)
	}
	spacing := *every
	if spacing <= 0 {
		spacing = upTo / 64
	}
	if spacing < 1 {
		spacing = 1
	}
	mk, err := core.NamedFactory(*config, *pred)
	if err != nil {
		return err
	}
	points, cfgName, err := core.BuildCheckpoints(trace.NewFileSource(*path), mk, spacing, upTo)
	if err != nil {
		return err
	}
	cf := &trace.CheckpointFile{
		TraceName:  hdr.Name,
		TraceInsts: upTo,
		ConfigName: cfgName,
		Points:     points,
	}
	out := trace.CheckpointPath(*path, cfgName)
	if err := trace.WriteCheckpoints(out, cf); err != nil {
		return err
	}
	st, err := os.Stat(out)
	if err != nil {
		return err
	}
	at := make([]string, len(points))
	for i, ck := range points {
		at[i] = strconv.FormatInt(ck.InstOffset, 10)
	}
	fmt.Printf("checkpointed %s for %s: %d snapshots at instructions %s, %d bytes -> %s\n",
		*path, cfgName, len(points), strings.Join(at, ", "), st.Size(), out)
	return nil
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func cmdDump(args []string) error {
	fs := flag.NewFlagSet("bebop-trace dump", flag.ExitOnError)
	bench := fs.String("bench", "", "Table II benchmark or probe/<family>/<pressure> name to generate")
	path := fs.String("trace", "", ".bbt trace to dump instead of a generator")
	n := fs.Int64("n", 50, "instructions to emit")
	summary := fs.Bool("summary", false, "print per-class totals instead of a listing")
	skip := fs.Int64("skip", 0, "skip this many leading instructions (trace: uses the frame index)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}

	var stream isa.Stream
	switch {
	case *path != "" && *bench != "":
		return fmt.Errorf("dump: -bench and -trace are mutually exclusive")
	case *path != "":
		r, err := trace.OpenFile(*path)
		if err != nil {
			return err
		}
		defer r.Close()
		r.SetLimit(*skip + *n)
		if err := r.SeekInst(*skip); err != nil {
			return err
		}
		stream = r
	default:
		if *bench == "" {
			*bench = "swim"
		}
		g, _, err := openBench(*bench, *skip+*n)
		if err != nil {
			return err
		}
		var in isa.Inst
		for i := int64(0); i < *skip; i++ {
			g.Next(&in)
		}
		stream = g
	}

	if *summary {
		dumpSummary(stream)
	} else {
		dumpListing(stream)
	}
	if es, ok := stream.(interface{ Err() error }); ok && es.Err() != nil {
		return es.Err()
	}
	return nil
}

func dumpSummary(stream isa.Stream) {
	var in isa.Inst
	classes := map[string]int{}
	branches := map[isa.BranchKind]int{}
	insts, uops := 0, 0
	for stream.Next(&in) {
		insts++
		branches[in.Kind]++
		for i := 0; i < in.NumUOps; i++ {
			classes[in.UOps[i].Class.String()]++
			uops++
		}
	}
	// Guard the rates: -n 0 emits nothing, and NaN% helps nobody.
	uopsPerInst := 0.0
	if insts > 0 {
		uopsPerInst = float64(uops) / float64(insts)
	}
	fmt.Printf("instructions %d, µ-ops %d (%.2f µ-ops/inst)\n", insts, uops, uopsPerInst)
	for c, cnt := range classes {
		pct := 0.0
		if uops > 0 {
			pct = 100 * float64(cnt) / float64(uops)
		}
		fmt.Printf("  %-8s %7d (%5.1f%%)\n", c, cnt, pct)
	}
	fmt.Printf("branches: cond %d, direct %d, call %d, return %d\n",
		branches[isa.BranchCond], branches[isa.BranchDirect],
		branches[isa.BranchCall], branches[isa.BranchReturn])
}

func dumpListing(stream isa.Stream) {
	var in isa.Inst
	var lastBlock uint64 = ^uint64(0)
	for stream.Next(&in) {
		blk := isa.BlockPC(in.PC)
		if blk != lastBlock {
			fmt.Printf("---- fetch block %#x ----\n", blk)
			lastBlock = blk
		}
		flow := ""
		switch in.Kind {
		case isa.BranchCond:
			if in.Taken {
				flow = fmt.Sprintf("  cond TAKEN -> %#x", in.Target)
			} else {
				flow = "  cond not-taken"
			}
		case isa.BranchDirect:
			flow = fmt.Sprintf("  jmp -> %#x", in.Target)
		case isa.BranchCall:
			flow = fmt.Sprintf("  call -> %#x", in.Target)
		case isa.BranchReturn:
			flow = fmt.Sprintf("  ret -> %#x", in.Target)
		}
		fmt.Printf("%#08x +%-2d (%2dB)%s\n", in.PC, isa.BlockOffset(in.PC), in.Size, flow)
		for i := 0; i < in.NumUOps; i++ {
			u := &in.UOps[i]
			dst := "--"
			if u.Dest != isa.RegNone {
				dst = fmt.Sprintf("r%d", u.Dest)
			}
			mem := ""
			if u.Class == isa.ClassLoad || u.Class == isa.ClassStore {
				mem = fmt.Sprintf(" [%#x]", u.Addr)
			}
			fmt.Printf("    µ%d %-6s %-4s <- r%d,r%d = %#x%s\n",
				i, u.Class, dst, u.Src[0], u.Src[1], u.Value, mem)
		}
	}
}
