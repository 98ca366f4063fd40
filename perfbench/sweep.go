package main

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"

	"bebop/sim"
)

// The sweep op: table 2, figure 5b and figure 8 over the six workloads,
// on a fresh Sweeper with two workers. Experiments share baselines
// through the engine cache: 60 job requests, 42 simulations, 18 hits.
var sweepExperiments = []string{"table2", "fig5b", "fig8"}

const (
	sweepParallel = 2
	sweepRuns     = 42
	sweepHits     = 18
	// sweepMinOps makes ≥100 cells (42 per op) for the cell p90.
	sweepMinOps = 3
)

// cellEvent is one completed cell of a sweep op, as the Sweeper's
// progress callback saw it.
type cellEvent struct {
	end     time.Time
	elapsed time.Duration // scheduling → done, as the sweep's caller sees the cell
	cached  bool
	batch   int
}

// sweepOp runs one sweep on a fresh Sweeper and returns its tables,
// engine stats and cell events.
func sweepOp(ctx context.Context, parallel int) ([]sim.ExperimentTable, sim.EngineStats, []cellEvent, error) {
	var mu sync.Mutex
	var cells []cellEvent
	batch, seen := 0, 0
	sw, err := sim.NewSweeper(sim.SweepOptions{
		Insts:    opInsts,
		Parallel: parallel,
		Progress: func(p sim.Progress) {
			now := time.Now()
			mu.Lock()
			defer mu.Unlock()
			// Batches run one after another and every event of a batch
			// is delivered before the next batch starts, so counting
			// events against Total numbers the batches.
			cells = append(cells, cellEvent{end: now, elapsed: p.Elapsed, cached: p.Cached, batch: batch})
			if seen++; seen == p.Total {
				batch, seen = batch+1, 0
			}
		},
	})
	if err != nil {
		return nil, sim.EngineStats{}, nil, err
	}
	tables, err := sw.Tables(ctx, sim.SweepSpec{Experiments: sweepExperiments, Workloads: benchWorkloads})
	mu.Lock()
	defer mu.Unlock()
	return tables, sw.Stats(), cells, err
}

// checkSweep compares one op against the reference.
func checkSweep(tables, ref []sim.ExperimentTable, st sim.EngineStats) string {
	switch {
	case st.Runs != sweepRuns || st.CacheHits != sweepHits:
		return fmt.Sprintf("engine ran %d cells with %d cache hits, want %d and %d", st.Runs, st.CacheHits, sweepRuns, sweepHits)
	case !reflect.DeepEqual(tables, ref):
		return "tables differ from the set-up reference"
	}
	return ""
}

// runSweep regenerates the three experiments on a fresh Sweeper per op,
// one op at a time.
func runSweep(ctx context.Context, cfg config) (*outcome, error) {
	o := &outcome{}
	var (
		st        setupTimes
		ref       []sim.ExperimentTable
		win       window
		delta     = map[string]float64{}
		split     profileSplit
		profs     [][]byte
		rec       *recorder
		cellLat   []float64
		makespans []float64
		tails     []float64
		hitRatio  []float64
		runs      []float64
	)
	if cfg.trace {
		rec = newRecorder()
	}
	op := func(i int) opResult {
		t0 := time.Now()
		tables, stats, cells, err := sweepOp(ctx, sweepParallel)
		t1 := time.Now()
		r := opResult{lat: t1.Sub(t0), insts: int64(stats.Runs) * opBudget}
		if err != nil {
			r.why = err.Error()
			return r
		}
		if r.why = checkSweep(tables, ref, stats); r.why != "" {
			return r
		}
		r.ok = true
		root := rec.add(i+1, 0, "sweep.op", t0, t1)
		var ran []span
		var batches []int
		for _, c := range cells {
			id := rec.add(i+1, root, "engine.cell", c.end.Add(-c.elapsed), c.end)
			if c.cached {
				continue
			}
			cellLat = append(cellLat, float64(c.elapsed)/float64(time.Millisecond))
			ran = append(ran, span{ID: id, Start: c.end.Add(-c.elapsed).Sub(t0), End: c.end.Sub(t0)})
			batches = append(batches, c.batch)
		}
		makespans = append(makespans, float64(r.lat)/float64(time.Millisecond))
		tails = append(tails, float64(batchTails(ran, batches))/float64(time.Millisecond))
		hitRatio = append(hitRatio, float64(stats.CacheHits)/float64(stats.CacheHits+stats.CacheMisses))
		runs = append(runs, float64(stats.Runs))
		return r
	}
	for k := 0; k < setupReps; k++ {
		// Set-up k is one untimed sweep op; slice k of the window follows.
		start := time.Now()
		tables, stats, _, err := sweepOp(ctx, sweepParallel)
		if err != nil {
			return nil, fmt.Errorf("set-up sweep: %w", err)
		}
		d := time.Since(start)
		st.record(d, map[string]time.Duration{"warmup": d})
		if ref == nil {
			ref = tables
			o.digest = digestOf(ref)
		}
		if why := checkSweep(tables, ref, stats); why != "" {
			o.problem("set-up %d: %s", k, why)
		}

		runtime.GC() // every slice starts from a collected heap, not the set-up's garbage
		var prof bytes.Buffer
		if cfg.trace {
			if err := pprof.StartCPUProfile(&prof); err != nil {
				return nil, err
			}
		}
		before := inProcessCounters()
		win.slice(cfg, 1, sweepMinOps, op)
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

	prefix := ""
	if cfg.trace {
		prefix = "traced."
	}
	o.addLoopMetrics(prefix, win.results, win.elapsed, false)
	// A run holds too few sweep ops for a p90 of makespans; the tail
	// reported is that of the cells inside them (scheduling → done).
	if percentileAllowed(len(cellLat), 0.9) {
		o.add(prefix+"latency_p90_ms", "ms", quantile(cellLat, 0.9), len(cellLat))
	}
	if !cfg.trace {
		rss, err := peakRSSMiB("self")
		if err != nil {
			return nil, err
		}
		o.add("peak_rss_mib", "MiB", rss, 0)
		o.add("setup_s", "s", median(st.total), len(st.total))
		return o, nil
	}

	o.add("setup.warmup_s", "s", median(st.parts["warmup"]), len(st.total))
	o.add("setup.first_s", "s", st.total[0], 1)
	o.add("engine.hit_ratio", "ratio", median(hitRatio), len(hitRatio))
	o.add("engine.runs", "count", median(runs), len(runs))
	o.add("engine.straggler_ms", "ms", median(tails), len(tails))
	o.add("core.proc_reuse_ratio", "ratio", procReuseRatio(delta), 0)
	// Σ serial cell time: the same sweep on one worker.
	serialStart := time.Now()
	if _, _, _, err := sweepOp(ctx, 1); err != nil {
		return nil, err
	}
	serial := time.Since(serialStart)
	rec.add(probeOpBase+len(allSpecs()), 0, "sweep.serial", serialStart, time.Now())
	o.add("engine.parallel_efficiency", "ratio",
		serial.Seconds()/(sweepParallel*median(makespans)/1000), len(makespans))
	if err := detailedProbe(ctx, o, rec, nil); err != nil {
		return nil, err
	}
	o.addProfileShares(split)
	if err := saveTrace(cfg, rec, profs); err != nil {
		return nil, err
	}
	o.fillAbsent()
	return o, nil
}
