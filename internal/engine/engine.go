// Package engine is a job-based simulation engine: the execution
// substrate under internal/experiments and the cmd/ front-ends.
//
// A Job names one (configuration name, workload) simulation. The engine
// deduplicates jobs through a result cache (one map under one mutex: a
// lookup or insert per job is negligible next to the simulation the job
// runs), collapses concurrent requests for the same job into one
// execution (waiters block on the owner's completion instead of
// re-simulating), bounds concurrent simulations with a worker pool,
// honours context.Context cancellation at every blocking point, and
// reduces batch results deterministically: the output order of RunBatch is
// the submission order, never the completion order.
//
// The engine is generic over the result value so tests can drive it with
// cheap types; the simulator instantiates Engine[pipeline.Result].
package engine

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"bebop/internal/faultinject"
	"bebop/internal/telemetry"
)

// Registry mirrors of the engine counters, plus live occupancy gauges.
// Every Engine instance in the process feeds the same series: they
// describe the process's simulation substrate, not one engine value.
var (
	mJobHits = telemetry.Default.Counter(`bebop_engine_jobs_total{result="hit"}`,
		"Jobs resolved, by outcome (hit = cache or in-flight dedup).")
	mJobMisses = telemetry.Default.Counter(`bebop_engine_jobs_total{result="miss"}`,
		"Jobs resolved, by outcome (hit = cache or in-flight dedup).")
	mJobRuns = telemetry.Default.Counter("bebop_engine_runs_total",
		"Job executions actually started (a cancelled queued miss never runs).")
	mQueued = telemetry.Default.Gauge("bebop_engine_queued_jobs",
		"Jobs holding a cache entry while waiting for a worker slot.")
	mBusy = telemetry.Default.Gauge("bebop_engine_busy_workers",
		"Worker slots currently executing a job.")
	mJobPanics = telemetry.Default.Counter("bebop_engine_job_panics_total",
		"Worker panics recovered into per-job errors (the process survives).")
)

// Job is one unit of schedulable work: a cacheable computation identified
// by (Key, Bench). Key is the configuration name, Bench the workload; the
// pair is the cache identity, so Run must be a pure function of it.
type Job[V any] struct {
	Key   string
	Bench string
	Run   func(ctx context.Context) (V, error)
}

// cacheKey joins the two identity components with a separator that cannot
// appear in either, so ("a","b/c") and ("a/b","c") never collide.
func (j Job[V]) cacheKey() string { return j.Key + "\x00" + j.Bench }

// JobResult is the outcome of one job within a batch.
type JobResult[V any] struct {
	Key, Bench string
	Value      V
	Err        error
	// Cached reports that the value was served from the cache (or from
	// another in-flight execution of the same job).
	Cached  bool
	Elapsed time.Duration
}

// Event reports one completed job (hit, run, or error). Completed/Total
// describe the surrounding batch at emission time.
type Event struct {
	Key, Bench string
	Cached     bool
	Err        error
	Elapsed    time.Duration
	Completed  int
	Total      int
}

// Options configures an Engine.
type Options struct {
	// Workers bounds concurrent job executions (default GOMAXPROCS via
	// runtime at New time; waiters on in-flight duplicates do not hold a
	// worker slot).
	Workers int
	// OnProgress, when set, receives one event per completed job. It may
	// be called from many goroutines concurrently and must be safe for
	// that.
	OnProgress func(Event)
}

// Stats is a snapshot of engine counters.
type Stats struct {
	// Hits counts jobs served from the cache or from an in-flight
	// duplicate; Misses counts jobs that claimed an execution slot.
	Hits, Misses uint64
	// Runs counts executions actually started (a miss that is cancelled
	// while queued for a worker slot never becomes a run).
	Runs uint64
	// Entries is the number of cached results.
	Entries int
}

// Engine schedules jobs over a result cache and a bounded worker pool.
// The zero value is not usable; call New.
type Engine[V any] struct {
	// mu guards cache. Entries are published before execution starts so
	// concurrent requests for the same job collapse onto one owner;
	// waiters block on the entry's done channel, never on mu.
	mu     sync.Mutex
	cache  map[string]*entry[V]
	sem    chan struct{}
	onProg func(Event)

	hits, misses, runs atomic.Uint64
}

// entry is one cached (or in-flight) result. done is closed exactly once,
// after val/err become valid.
type entry[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// New builds an Engine. workers <= 0 selects one worker per logical CPU.
func New[V any](opts Options) *Engine[V] {
	nw := opts.Workers
	if nw <= 0 {
		nw = runtime.GOMAXPROCS(0)
	}
	return &Engine[V]{
		cache:  map[string]*entry[V]{},
		sem:    make(chan struct{}, nw),
		onProg: opts.OnProgress,
	}
}

// Workers reports the size of the worker pool.
func (e *Engine[V]) Workers() int { return cap(e.sem) }

// RunBatch schedules every job, waits for all of them, and returns their
// results in submission order (deterministic reduction: position i of the
// output always corresponds to jobs[i], whatever the completion order).
// The returned error is the first job error in submission order — under
// cancellation, typically ctx.Err(). Partial results are still returned.
func (e *Engine[V]) RunBatch(ctx context.Context, jobs []Job[V]) ([]JobResult[V], error) {
	out := make([]JobResult[V], len(jobs))
	var completed atomic.Int64
	var wg sync.WaitGroup
	for i := range jobs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			job := jobs[i]
			start := time.Now()
			val, cached, err := e.resolve(ctx, job)
			elapsed := time.Since(start)
			out[i] = JobResult[V]{Key: job.Key, Bench: job.Bench,
				Value: val, Err: err, Cached: cached, Elapsed: elapsed}
			if e.onProg != nil {
				e.onProg(Event{Key: job.Key, Bench: job.Bench,
					Cached: cached, Err: err, Elapsed: elapsed,
					Completed: int(completed.Add(1)), Total: len(jobs)})
			}
		}(i)
	}
	wg.Wait()
	for i := range out {
		if out[i].Err != nil {
			return out, out[i].Err
		}
	}
	return out, nil
}

// resolve returns the job's value, serving from cache when possible and
// executing under a worker slot otherwise. The bool reports a cache hit.
//
// Failure handling: a job runs once per owner. An error, or a panic
// recovered into a *PanicError, goes back to the caller as it is, and
// the entry is unpublished first, so the cache never retains an errored
// or poisoned result and a later submission runs the job afresh.
func (e *Engine[V]) resolve(ctx context.Context, job Job[V]) (V, bool, error) {
	var zero V
	key := job.cacheKey()

	for {
		// A select with both a free worker slot and a dead context ready
		// picks randomly; check first so cancelled batches never start new
		// work (and the waiter loop below always terminates for us).
		if err := ctx.Err(); err != nil {
			return zero, false, err
		}

		e.mu.Lock()
		if ent, ok := e.cache[key]; ok {
			e.mu.Unlock()
			// Completed or in flight: wait for the owner rather than
			// duplicating the simulation.
			select {
			case <-ent.done:
				if ent.err != nil {
					// The owner failed with an error of its own — possibly
					// its caller's cancellation, which says nothing about
					// our context. The entry was unpublished before done
					// closed, so look again: we either become the new owner
					// and get a result (or an error that is genuinely ours),
					// or wait on a fresh owner.
					continue
				}
				e.hits.Add(1)
				mJobHits.Inc()
				return ent.val, true, nil
			case <-ctx.Done():
				return zero, false, ctx.Err()
			}
		}
		ent := &entry[V]{done: make(chan struct{})}
		e.cache[key] = ent
		e.mu.Unlock()
		e.misses.Add(1)
		mJobMisses.Inc()

		// Claim a worker slot; on cancellation unpublish the entry so a
		// later submission can run the job, and release any waiters with
		// the error (they look again, see above).
		mQueued.Add(1)
		select {
		case e.sem <- struct{}{}:
			mQueued.Add(-1)
		case <-ctx.Done():
			mQueued.Add(-1)
			e.remove(key)
			ent.err = ctx.Err()
			close(ent.done)
			return zero, false, ctx.Err()
		}

		e.runs.Add(1)
		mJobRuns.Inc()
		mBusy.Add(1)
		val, err := runGuarded(ctx, job)
		mBusy.Add(-1)
		<-e.sem
		if err != nil {
			// Unpublish before releasing waiters: the cache must never
			// retain an errored (or panicked) entry.
			e.remove(key)
			ent.err = err
			close(ent.done)
			return zero, false, err
		}
		ent.val = val
		close(ent.done)
		return val, false, nil
	}
}

// PanicError is a worker panic converted into a per-job error: the
// recovered value plus the goroutine stack at the panic site. One bad
// job (a RunSpec that trips a simulator bug, an injected chaos panic)
// fails with this error instead of taking the process — and with it
// every other in-flight run — down.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("engine: job panicked: %v\n%s", e.Value, e.Stack)
}

// runGuarded executes a job with panic isolation: a panicking Run
// (simulator bug, chaos injection) becomes a *PanicError carrying the
// stack, poisoning only this job. The "engine.worker" failure point
// sits inside the guard so injected panics exercise the same recovery
// path real ones take.
func runGuarded[V any](ctx context.Context, job Job[V]) (val V, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			mJobPanics.Inc()
			err = &PanicError{Value: rec, Stack: debug.Stack()}
		}
	}()
	if err := faultinject.Fire("engine.worker"); err != nil {
		return val, err
	}
	return job.Run(ctx)
}

// remove unpublishes key, so a failed or cancelled job is never served
// from the cache.
func (e *Engine[V]) remove(key string) {
	e.mu.Lock()
	delete(e.cache, key)
	e.mu.Unlock()
}

// Stats snapshots the engine counters and cache occupancy.
func (e *Engine[V]) Stats() Stats {
	e.mu.Lock()
	n := len(e.cache)
	e.mu.Unlock()
	return Stats{
		Hits:    e.hits.Load(),
		Misses:  e.misses.Load(),
		Runs:    e.runs.Load(),
		Entries: n,
	}
}
