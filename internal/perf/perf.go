// Package perf is the simulator's performance-trajectory harness: it runs
// a pinned (configuration, workload) matrix with a fixed instruction
// budget, measures wall time, simulation rate and allocation behaviour
// per cell, and serializes the result as BENCH_pipeline.json. The file is
// committed once per PR that touches the hot path, giving the repository
// a comparable insts/sec and allocs-per-instruction trajectory across its
// history instead of anecdotal one-off numbers.
//
// Measurement notes: allocation counts come from runtime.MemStats deltas
// around each run, so Measure must not race with other allocating
// goroutines if the numbers are to be meaningful — cmd/bebop-bench runs
// the matrix sequentially for exactly that reason. A warmup run per cell
// (not measured) fills the processor/µ-op pools the way a long-lived
// engine worker would, so the numbers reflect steady state, not cold
// start.
package perf

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"bebop/internal/core"
	"bebop/internal/pipeline"
	"bebop/internal/trace"
	"bebop/internal/workload"
)

// Schema identifies the BENCH_pipeline.json layout; bump on breaking
// changes so trajectory tooling can tell files apart.
//
// Schema 2 added Point.Mode and the replay scenario: each pinned
// workload is also recorded as a .bbt trace and replayed through the
// baseline pipeline, so the trajectory shows what the trace format
// costs (or saves) relative to generating instructions live.
//
// Schema 3 added Totals.GeomeanInstsPerSec: the geometric mean of the
// per-cell insts/sec rates, the headline number of the folded-history /
// data-layout PR (aggregate insts/sec overweights long-running cells;
// the geomean weighs every workload equally, so memory-bound mcf counts
// as much as swim) and the quantity the CI perf gate compares.
//
// Schema 4 added the sampled scenario: each pinned workload's trace is
// also estimated by checkpointed sampled simulation, and its points
// carry EffectiveInstsPerSec — the represented (warmup+measure) budget
// over wall time, the throughput a consumer of the estimate actually
// experiences. Sampled cells gate on the effective rate.
const Schema = 4

// PinnedWorkloads is the fixed benchmark subset every trajectory point
// runs: predictable (swim), mixed (gcc, bzip2), memory-bound (mcf),
// branchy (xalancbmk) and FP (milc) behaviour, so hot-path regressions on
// any axis show up.
func PinnedWorkloads() []string {
	return []string{"swim", "gcc", "mcf", "bzip2", "xalancbmk", "milc"}
}

// Configs returns the pinned configuration matrix: the plain pipeline and
// the full BeBoP EOLE stack, the two ends of the per-instruction work
// spectrum.
func Configs() []struct {
	Name string
	Mk   core.ConfigFactory
} {
	return []struct {
		Name string
		Mk   core.ConfigFactory
	}{
		{"Baseline_6_60", core.Baseline()},
		{"EOLE_4_60/Medium", core.EOLEBeBoP("Medium", core.MediumConfig())},
	}
}

// Point is one (configuration, workload) trajectory measurement.
type Point struct {
	Config string `json:"config"`
	Bench  string `json:"bench"`
	// Mode is "generate" (live synthetic generator), "replay" (the same
	// workload streamed from a recorded .bbt trace) or "sampled"
	// (checkpointed sampled estimation of the trace).
	Mode string `json:"mode"`

	Insts uint64  `json:"insts"` // measured (post-warmup) instructions
	UOps  uint64  `json:"uops"`
	IPC   float64 `json:"ipc"`

	WallSeconds float64 `json:"wall_seconds"`
	InstsPerSec float64 `json:"insts_per_sec"`
	UOpsPerSec  float64 `json:"uops_per_sec"`
	// EffectiveInstsPerSec (sampled mode only) divides the represented
	// budget — the warmup+measure window the estimate stands in for —
	// by wall time. InstsPerSec above stays the detailed-instruction
	// rate, so the two together show the sampling leverage.
	EffectiveInstsPerSec float64 `json:"effective_insts_per_sec,omitempty"`

	// Allocations and bytes allocated during the run (runtime.MemStats
	// delta), plus the headline allocations-per-kilo-instruction rate.
	Allocs         uint64  `json:"allocs"`
	Bytes          uint64  `json:"bytes"`
	AllocsPerKInst float64 `json:"allocs_per_kinst"`
}

// Totals aggregates a report.
type Totals struct {
	WallSeconds    float64 `json:"wall_seconds"`
	Insts          uint64  `json:"insts"`
	UOps           uint64  `json:"uops"`
	InstsPerSec    float64 `json:"insts_per_sec"`
	UOpsPerSec     float64 `json:"uops_per_sec"`
	Allocs         uint64  `json:"allocs"`
	Bytes          uint64  `json:"bytes"`
	AllocsPerKInst float64 `json:"allocs_per_kinst"`
	// GeomeanInstsPerSec is the geometric mean of the per-cell
	// insts/sec rates (schema 3): every workload counts equally,
	// however long it runs.
	GeomeanInstsPerSec float64 `json:"geomean_insts_per_sec"`
}

// Report is one trajectory point: everything written to
// BENCH_pipeline.json. Totals aggregates the generate points only (so
// the headline trajectory stays comparable across schema versions);
// ReplayTotals aggregates the replay points.
type Report struct {
	Schema           int     `json:"schema"`
	Note             string  `json:"note,omitempty"`
	GoVersion        string  `json:"go_version"`
	GOOS             string  `json:"goos"`
	GOARCH           string  `json:"goarch"`
	InstsPerWorkload int64   `json:"insts_per_workload"`
	Points           []Point `json:"points"`
	Totals           Totals  `json:"totals"`
	ReplayTotals     *Totals `json:"replay_totals,omitempty"`
	// SampledTotals aggregates the sampled points (schema 4); its
	// GeomeanInstsPerSec is over the effective rates.
	SampledTotals *Totals `json:"sampled_totals,omitempty"`
}

// Options configures Measure.
type Options struct {
	// Insts is the per-workload measured instruction budget; insts/2
	// more warm up first. <= 0 selects 50_000.
	Insts int64
	// Workloads overrides the pinned set (tests, smoke runs).
	Workloads []string
	// Note is carried into the report verbatim.
	Note string
}

// Measure runs the pinned matrix sequentially and returns the report.
func Measure(opts Options) (Report, error) {
	insts := opts.Insts
	if insts <= 0 {
		insts = 50_000
	}
	benches := opts.Workloads
	if benches == nil {
		benches = PinnedWorkloads()
	}
	rep := Report{
		Schema:           Schema,
		Note:             opts.Note,
		GoVersion:        runtime.Version(),
		GOOS:             runtime.GOOS,
		GOARCH:           runtime.GOARCH,
		InstsPerWorkload: insts,
	}
	for _, cfg := range Configs() {
		for _, bench := range benches {
			prof, ok := workload.ProfileByName(bench)
			if !ok {
				return Report{}, fmt.Errorf("perf: unknown benchmark %q", bench)
			}
			p, err := measureCell(cfg.Name, bench, "generate", func() (pipeline.Result, error) {
				return core.RunSourceCtx(context.Background(), workload.ProfileSource{Prof: prof}, insts/2, insts, cfg.Mk)
			})
			if err != nil {
				return Report{}, fmt.Errorf("perf: generate %s: %w", bench, err)
			}
			rep.Points = append(rep.Points, p)
			addPoint(&rep.Totals, p)
		}
	}

	// Replay scenario: the same workloads streamed from recorded .bbt
	// traces through the baseline pipeline, so generate-vs-replay
	// insts/sec shows what the trace format costs. Recording is
	// unmeasured setup; only the replay run lands in the report.
	traceDir, err := os.MkdirTemp("", "bebop-perf-traces")
	if err != nil {
		return Report{}, err
	}
	defer os.RemoveAll(traceDir)
	replayCfg := Configs()[0]
	var replayTotals, sampledTotals Totals
	for _, bench := range benches {
		prof, _ := workload.ProfileByName(bench)
		path := filepath.Join(traceDir, bench+trace.Ext)
		f, err := os.Create(path)
		if err != nil {
			return Report{}, err
		}
		// A run consumes warmup (insts/2) + insts instructions.
		_, _, rerr := trace.Record(f, workload.New(prof, insts/2+insts),
			trace.WriterOptions{Name: bench, Seed: prof.Seed})
		if cerr := f.Close(); rerr == nil {
			rerr = cerr
		}
		if rerr != nil {
			return Report{}, fmt.Errorf("perf: record %s: %w", bench, rerr)
		}
		src := trace.NewFileSource(path)
		p, err := measureCell(replayCfg.Name, bench, "replay", func() (pipeline.Result, error) {
			return core.RunSourceCtx(context.Background(), src, insts/2, insts, replayCfg.Mk)
		})
		if err != nil {
			return Report{}, fmt.Errorf("perf: replay %s: %w", bench, err)
		}
		rep.Points = append(rep.Points, p)
		addPoint(&replayTotals, p)

		// Sampled scenario: the same trace estimated by checkpointed
		// sampled simulation. Building the checkpoints (one warming pass)
		// is unmeasured setup, matching how sim amortizes the side-file
		// across runs; the measured run restores and samples.
		sp, ok := sampledParams(insts)
		if !ok {
			continue // budget too small for a meaningful sampling plan
		}
		warmup := insts / 2
		points, _, err := core.BuildCheckpoints(src, replayCfg.Mk, insts/int64(sp.Intervals), warmup+insts)
		if err != nil {
			return Report{}, fmt.Errorf("perf: checkpoint %s: %w", bench, err)
		}
		sp.Checkpoints = &trace.CheckpointFile{Points: points}
		p, err = measureCell(replayCfg.Name, bench, "sampled", func() (pipeline.Result, error) {
			res, _, err := core.RunSampled(context.Background(), src, warmup, insts, replayCfg.Mk, sp)
			return res, err
		})
		if err != nil {
			return Report{}, fmt.Errorf("perf: sampled %s: %w", bench, err)
		}
		if p.WallSeconds > 0 {
			p.EffectiveInstsPerSec = float64(warmup+insts) / p.WallSeconds
		}
		rep.Points = append(rep.Points, p)
		addPoint(&sampledTotals, p)
	}
	finishTotals(&rep.Totals, rep.Points, "generate")
	finishTotals(&replayTotals, rep.Points, "replay")
	rep.ReplayTotals = &replayTotals
	if sampledTotals.Insts > 0 {
		finishTotals(&sampledTotals, rep.Points, "sampled")
		rep.SampledTotals = &sampledTotals
	}
	return rep, nil
}

// sampledParams derives the pinned sampling plan for a perf budget: 10
// intervals covering a tenth of the measured window, the same shape the
// SDK defaults to. Budgets under 1000 instructions cannot fit it.
func sampledParams(insts int64) (core.SamplingParams, bool) {
	const intervals = 10
	ii := insts / (10 * intervals)
	if ii < 1 {
		return core.SamplingParams{}, false
	}
	return core.SamplingParams{
		Intervals:     intervals,
		IntervalInsts: ii,
		WarmupInsts:   8 * ii,
		DetailWarmup:  ii / 4,
	}, true
}

// measureCell runs one cell twice — an unmeasured warmup that fills the
// processor pool (and, for replay, the OS page cache) the way a
// long-lived engine worker would, then the measured run bracketed by
// runtime.MemStats reads. A run's error fails the cell.
func measureCell(config, bench, mode string, run func() (pipeline.Result, error)) (Point, error) {
	if _, err := run(); err != nil {
		return Point{}, err
	}

	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	start := time.Now()
	res, err := run()
	wall := time.Since(start).Seconds()
	runtime.ReadMemStats(&m1)
	if err != nil {
		return Point{}, err
	}

	p := Point{
		Config:      config,
		Bench:       bench,
		Mode:        mode,
		Insts:       res.Insts,
		UOps:        res.UOps,
		IPC:         res.IPC,
		WallSeconds: wall,
		Allocs:      m1.Mallocs - m0.Mallocs,
		Bytes:       m1.TotalAlloc - m0.TotalAlloc,
	}
	if wall > 0 {
		p.InstsPerSec = float64(res.Insts) / wall
		p.UOpsPerSec = float64(res.UOps) / wall
	}
	if res.Insts > 0 {
		p.AllocsPerKInst = 1000 * float64(p.Allocs) / float64(res.Insts)
	}
	return p, nil
}

func addPoint(t *Totals, p Point) {
	t.WallSeconds += p.WallSeconds
	t.Insts += p.Insts
	t.UOps += p.UOps
	t.Allocs += p.Allocs
	t.Bytes += p.Bytes
}

func finishTotals(t *Totals, points []Point, mode string) {
	if t.WallSeconds > 0 {
		t.InstsPerSec = float64(t.Insts) / t.WallSeconds
		t.UOpsPerSec = float64(t.UOps) / t.WallSeconds
	}
	if t.Insts > 0 {
		t.AllocsPerKInst = 1000 * float64(t.Allocs) / float64(t.Insts)
	}
	t.GeomeanInstsPerSec = geomeanRate(points, mode)
}

// geomeanRate is the geometric mean of the headline rate over the points
// of one mode; 0 if no point of that mode has a positive rate.
func geomeanRate(points []Point, mode string) float64 {
	sum, n := 0.0, 0
	for _, p := range points {
		r := p.headlineRate()
		if p.Mode != mode || r <= 0 {
			continue
		}
		sum += math.Log(r)
		n++
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// headlineRate is the rate a cell is judged by: the effective rate for
// sampled cells, the detailed rate for everything else.
func (p Point) headlineRate() float64 {
	if p.EffectiveInstsPerSec > 0 {
		return p.EffectiveInstsPerSec
	}
	return p.InstsPerSec
}

// Gate compares a fresh report against a committed reference and returns
// the geomean ratio of per-cell insts/sec over the (config, bench, mode)
// cells the two have in common. It fails when the ratio falls below
// 1-maxRegress — a CI tripwire for order-of-magnitude hot-path mistakes,
// with the threshold left loose enough to absorb runner-to-runner noise.
func Gate(fresh, ref Report, maxRegress float64) (float64, error) {
	type key struct{ config, bench, mode string }
	refRate := make(map[key]float64, len(ref.Points))
	for _, p := range ref.Points {
		if p.headlineRate() > 0 {
			refRate[key{p.Config, p.Bench, p.Mode}] = p.headlineRate()
		}
	}
	sum, n := 0.0, 0
	worst, worstCell := math.Inf(1), ""
	for _, p := range fresh.Points {
		old, ok := refRate[key{p.Config, p.Bench, p.Mode}]
		if !ok || p.headlineRate() <= 0 {
			continue
		}
		r := p.headlineRate() / old
		sum += math.Log(r)
		n++
		if r < worst {
			worst, worstCell = r, p.Config+"/"+p.Bench+"/"+p.Mode
		}
	}
	if n == 0 {
		return 0, fmt.Errorf("perf: gate found no common (config, bench, mode) cells")
	}
	ratio := math.Exp(sum / float64(n))
	if ratio < 1-maxRegress {
		return ratio, fmt.Errorf(
			"geomean insts/sec ratio %.3f below %.3f over %d cells (worst cell %s at %.3f)",
			ratio, 1-maxRegress, n, worstCell, worst)
	}
	return ratio, nil
}

// WriteFile serializes the report as indented JSON at path.
func (r Report) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadFile loads a previously written report (trajectory comparisons).
func ReadFile(path string) (Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Report{}, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return Report{}, err
	}
	return r, nil
}
