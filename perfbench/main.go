// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload — serve, sweep or replay-sampled — for a fixed time, checks
// every simulated result against a reference captured during set-up,
// and prints the end-to-end metrics (or, with -trace 1, the per-layer
// metrics) as the last line of its output:
//
//	{"correct": true, "attempted": 212, "failed": 0, "metrics": {...}}
//
// Build and run it through perfbench/run.sh from the root of the
// repository; perfbench/README.md describes the workloads, the metrics
// and how to read the spans a traced run writes.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// The op shape every workload shares: the six pinned workloads of
// internal/perf under both ends of the configuration spectrum, each run
// as 50K warmup + 100K measured instructions.
const (
	opInsts   = 100_000
	opWarmup  = 50_000
	opBudget  = opInsts + opWarmup
	setupReps = 3 // set-ups per run, each followed by a slice of the window; setup_s is their median
)

var (
	benchWorkloads = []string{"swim", "gcc", "mcf", "bzip2", "xalancbmk", "milc"}
	benchConfigs   = []string{"baseline", "eole-bebop/Medium"}
)

// opSpec is one (workload, config) pair; specs are listed workload-major.
type opSpec struct{ Workload, Config string }

func allSpecs() []opSpec {
	var out []opSpec
	for _, w := range benchWorkloads {
		for _, c := range benchConfigs {
			out = append(out, opSpec{w, c})
		}
	}
	return out
}

// metric is one printed figure. N is its sample count (0 for a count or
// a ratio of counts).
type metric struct {
	Name  string
	Unit  string
	Value float64
	N     int
}

// outcome is what one run reports.
type outcome struct {
	attempted, failed int
	problems          []string // correctness failures beyond failed ops
	metrics           []metric
	absent            map[string]string // per-layer metric → why it has no value here
	digest            string            // over every simulated statistic of the references
}

func (o *outcome) add(name, unit string, v float64, n int) {
	o.metrics = append(o.metrics, metric{name, unit, v, n})
}

// na records a per-layer metric the workload does not exercise; it is
// printed as 0 with the reason beside it.
func (o *outcome) na(name, unit, why string) {
	if o.absent == nil {
		o.absent = map[string]string{}
	}
	o.absent[name] = why
	o.add(name, unit, 0, 0)
}

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// config is the parsed command line.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	buildDir string
	runDir   string // empty per-run directory under buildDir
	results  string // where traced runs leave spans and profiles
}

func (c config) window() time.Duration { return time.Duration(c.seconds) * time.Second }

// opOrder returns the seed-shuffled order ops are issued in: successive
// permutations of the spec indices. The seed changes nothing else.
func opOrder(seed int64, nspecs, n int) []int {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int, 0, n+nspecs)
	for len(out) < n {
		out = append(out, rng.Perm(nspecs)...)
	}
	return out[:n]
}

// opResult is one timed op.
type opResult struct {
	lat   time.Duration
	insts int64 // simulated instructions the op stands for
	ok    bool
	why   string // the reason when !ok
}

// loop runs ops in a closed loop: each of clients issues the next op
// only after its previous one returned. Ops are issued while the window
// is open, and beyond it until minOps have been issued, so a percentile
// always has its samples. It returns the results in completion order
// and the time from the first issue to the last completion.
func loop(clients int, window time.Duration, minOps int, op func(i int) opResult) ([]opResult, time.Duration) {
	var (
		mu      sync.Mutex
		results []opResult
		issued  atomic.Int64
		wg      sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				n := issued.Load()
				if time.Since(start) >= window && n >= int64(minOps) {
					return
				}
				if !issued.CompareAndSwap(n, n+1) {
					continue
				}
				r := op(int(n))
				mu.Lock()
				results = append(results, r)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return results, time.Since(start)
}

// window accumulates a run's timed window. The window is cut into
// setupReps slices, each run right after one of the set-ups on the state
// that set-up built. Spreading the timed work over the whole run makes
// each run average more of the host's speed swings, which last about as
// long as a contiguous window would.
type window struct {
	results []opResult
	elapsed time.Duration
}

// slice runs one slice of the window in a closed loop (see loop); ops
// are numbered across slices, and minOps is the whole window's minimum.
func (w *window) slice(cfg config, clients, minOps int, op func(i int) opResult) {
	base := len(w.results)
	rs, el := loop(clients, cfg.window()/setupReps, (minOps+setupReps-1)/setupReps,
		func(i int) opResult { return op(base + i) })
	w.results = append(w.results, rs...)
	w.elapsed += el
}

// addLoopMetrics reports throughput and latency over a loop's results.
// p90 is reported only when enough ops ran for it (see
// percentileAllowed); the loop's minOps guarantees that for serve and
// replay-sampled.
func (o *outcome) addLoopMetrics(prefix string, rs []opResult, elapsed time.Duration, p90 bool) {
	var insts int64
	var lats []float64
	for _, r := range rs {
		o.attempted++
		if !r.ok {
			o.failed++
			if o.failed <= 5 {
				fmt.Fprintf(os.Stderr, "perfbench: failed op: %s\n", r.why)
			}
			continue
		}
		insts += r.insts
		lats = append(lats, float64(r.lat)/float64(time.Millisecond))
	}
	o.add(prefix+"throughput_kips", "kinst/s", float64(insts)/1000/elapsed.Seconds(), len(lats))
	o.add(prefix+"latency_p50_ms", "ms", median(lats), len(lats))
	if p90 && percentileAllowed(len(lats), 0.9) {
		o.add(prefix+"latency_p90_ms", "ms", quantile(lats, 0.9), len(lats))
	}
}

// setupTimes collects the repeated set-ups of one run.
type setupTimes struct {
	total []float64            // seconds, one per set-up
	parts map[string][]float64 // named portions, one value per set-up
}

func (s *setupTimes) record(total time.Duration, parts map[string]time.Duration) {
	s.total = append(s.total, total.Seconds())
	if s.parts == nil {
		s.parts = map[string][]float64{}
	}
	for k, v := range parts {
		s.parts[k] = append(s.parts[k], v.Seconds())
	}
}

// digestOf hashes the canonical JSON of a run's references: a later
// change that claims only speed must leave it unchanged.
func digestOf(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return "unhashable: " + err.Error()
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// workloadFuncs maps a workload name to its runner.
var workloadFuncs = map[string]func(context.Context, config) (*outcome, error){
	"serve":          runServe,
	"sweep":          runSweep,
	"replay-sampled": runReplay,
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: serve, sweep or replay-sampled")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for the op order")
	flag.IntVar(&cfg.seconds, "seconds", 20, "length of the timed window")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&cfg.buildDir, "build-dir", ".bench_build", "directory holding the built binaries and per-run directories")
	steadyFlag := flag.Bool("steady", false, "steadiness check: two sets of ten untraced runs of every workload, compared")
	flag.Parse()
	if *steadyFlag {
		if err := steady("BENCHMARK.json", cfg.buildDir); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	run, ok := workloadFuncs[cfg.workload]
	if !ok || cfg.seconds < 1 || (traceFlag != 0 && traceFlag != 1) || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "perfbench: usage: -workload serve|sweep|replay-sampled -seed N -seconds S -trace 0|1")
		os.Exit(2)
	}
	cfg.trace = traceFlag == 1
	if err := prepareDirs(&cfg); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := run(context.Background(), cfg)
	// The per-run directory holds the set-ups' traces, side-files and
	// logs; nothing in it is reused by a later run.
	os.RemoveAll(cfg.runDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	printOutcome(cfg, out)
}

// prepareDirs creates an empty per-run directory, so no side-file of an
// earlier run is ever reused.
func prepareDirs(cfg *config) error {
	abs, err := filepath.Abs(cfg.buildDir)
	if err != nil {
		return err
	}
	cfg.buildDir = abs
	cfg.runDir = filepath.Join(abs, "work", fmt.Sprintf("%s-seed%d-%d", cfg.workload, cfg.seed, os.Getpid()))
	cfg.results = filepath.Join(abs, "results")
	if err := os.RemoveAll(cfg.runDir); err != nil {
		return err
	}
	if err := os.MkdirAll(cfg.runDir, 0o755); err != nil {
		return err
	}
	return os.MkdirAll(cfg.results, 0o755)
}

// printOutcome prints the human-readable report, the run's context line
// and, last, the result object.
func printOutcome(cfg config, o *outcome) {
	mode := "untraced"
	if cfg.trace {
		mode = "traced"
	}
	fmt.Printf("perfbench %s (%s), seed %d, window %ds\n", cfg.workload, mode, cfg.seed, cfg.seconds)
	for _, m := range o.metrics {
		line := fmt.Sprintf("  %-36s %14.4f %-8s", m.Name, m.Value, m.Unit)
		if m.N > 0 {
			line += fmt.Sprintf(" (n=%d)", m.N)
		}
		if why, ok := o.absent[m.Name]; ok {
			line += "  n/a: " + why
		}
		fmt.Println(line)
	}
	fmt.Printf("  ops attempted %d, failed %d\n", o.attempted, o.failed)
	for _, p := range o.problems {
		fmt.Println("  PROBLEM:", p)
	}
	fmt.Printf("  digest %s\n", o.digest)
	host := readHostInfo(cfg.seed, filepath.Join(cfg.buildDir, "work"))
	ctxLine, _ := json.Marshal(map[string]any{
		"workload": cfg.workload, "traced": cfg.trace, "seconds": cfg.seconds,
		"digest": o.digest, "host": host, "absent": o.absent,
	})
	fmt.Printf("context %s\n", ctxLine)

	metrics := map[string]any{}
	for _, m := range o.metrics {
		metrics[m.Name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	if o.attempted == 0 {
		o.attempted, o.failed = 1, 1 // a run that issued nothing failed
	}
	res, _ := json.Marshal(map[string]any{
		"correct":   o.failed == 0 && len(o.problems) == 0,
		"attempted": o.attempted,
		"failed":    o.failed,
		"metrics":   metrics,
	})
	fmt.Println(string(res))
}
