package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"bebop/internal/pipeline"
	"bebop/internal/workload"
)

// BuildCheckpoints warms one processor continuously over [0, upTo) and
// snapshots its microarchitectural state at every multiple of `every`
// below upTo. Warming is split-invariant, so restoring a point and
// warming or running detailed from it is equivalent to warming straight
// through: one build serves every later sampled run, and an interval
// that starts on a point restores it and warms nothing. Configurations
// whose value predictor cannot snapshot (the idealistic
// per-instruction infrastructure) are reported as an error, and so is a
// panic during the pass (the processor runs inside simulate's guard).
// It returns every point and the configuration's name; RunSampledBuilding
// streams the same points instead of collecting them.
func BuildCheckpoints(src workload.Source, mk ConfigFactory, every, upTo int64) ([]*pipeline.Checkpoint, string, error) {
	var points []*pipeline.Checkpoint
	name, err := buildCheckpoints(context.Background(), src, mk, every, upTo, func(ck *pipeline.Checkpoint) error {
		own := *ck
		own.State = bytes.Clone(ck.State)
		points = append(points, &own)
		return nil
	})
	if err != nil {
		return nil, "", err
	}
	return points, name, nil
}

// CheckpointCount is the number of points a build over [0, upTo) at
// spacing every takes: one at every multiple of every below upTo.
func CheckpointCount(every, upTo int64) int {
	return int((upTo - 1) / every)
}

// buildCheckpoints is the warming pass of BuildCheckpoints. It hands
// each point to emit as it takes it, a view of the processor's state
// buffer that is valid only during the call, and returns the
// configuration's name. A cancelled ctx ends the pass with an error.
func buildCheckpoints(ctx context.Context, src workload.Source, mk ConfigFactory, every, upTo int64, emit func(*pipeline.Checkpoint) error) (string, error) {
	if every < 1 || upTo < every {
		return "", fmt.Errorf("core: checkpoint spacing %d over %d instructions", every, upTo)
	}
	stream, err := open(src, upTo)
	if err != nil {
		return "", err
	}
	var name string
	named := func() pipeline.Config {
		cfg := mk()
		name = cfg.Name
		return cfg
	}
	err = runStream(ctx, src, stream, upTo, nil, named, func(p *pipeline.Processor) error {
		for at := every; at < upTo; at += every {
			if n := p.Warm(every); n != every {
				return fmt.Errorf("core: workload %q ended at instruction %d, checkpoint wanted %d",
					src.Name(), at-every+n, at)
			}
			ck, err := p.SnapshotView(at)
			if err != nil {
				return fmt.Errorf("core: checkpoint at instruction %d: %w", at, err)
			}
			if err := emit(&ck); err != nil {
				return err
			}
		}
		return nil
	})
	return name, err
}

// RunSampledBuilding is RunSampled over the checkpoints one warming pass
// takes beside it, as BuildCheckpoints(src, mk, every, warmup+insts)
// takes them: the pass hands each point to emit (a side-file writer,
// say), with a State valid only during the call, and the run's
// intervals restore the points they start on as the pass reaches them.
// Neither side holds the point list. A point that an interval restores
// is copied until every interval that restores it has done so or ended,
// and the pass waits while workers+1 copies are alive, so the run holds
// at most that many points, however long the trace. Its outcome is what
// RunSampled reports over the finished side-file; sp.Checkpoints is
// ignored.
//
// A pass that fails or panics releases every interval waiting for a
// point, which then fails with its error; a run that fails stops the
// pass. Either way the run returns the first error, the context's when
// it was cancelled, and the pass has ended when RunSampledBuilding
// returns, so the caller may discard what emit was given.
func RunSampledBuilding(ctx context.Context, src workload.Source, warmup, insts int64, mk ConfigFactory, sp SamplingParams, every int64, emit func(*pipeline.Checkpoint) error) (pipeline.Result, SampleStats, error) {
	feed, err := newCheckpointFeed(sp, warmup, insts, every)
	if err != nil {
		return pipeline.Result{}, SampleStats{}, err
	}
	return feed.run(ctx, src, warmup, insts, mk, sp, emit)
}

// run is RunSampledBuilding over the feed the pass feeds.
func (f *checkpointFeed) run(ctx context.Context, src workload.Source, warmup, insts int64, mk ConfigFactory, sp SamplingParams, emit func(*pipeline.Checkpoint) error) (pipeline.Result, SampleStats, error) {
	passCtx, stop := context.WithCancel(ctx)
	defer stop()
	passErr := make(chan error, 1)
	go func() {
		_, err := buildCheckpoints(passCtx, src, mk, f.every, warmup+insts, func(ck *pipeline.Checkpoint) error {
			if err := emit(ck); err != nil {
				return err
			}
			f.offer(ck)
			return nil
		})
		f.finish(err)
		passErr <- err
	}()
	sp.Checkpoints = f
	res, st, err := runSampled(ctx, src, warmup, insts, mk, sp, f.release)
	if err != nil {
		stop()
	}
	f.close()
	if perr := <-passErr; err == nil {
		err = perr
	}
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			err = cerr
		}
		return pipeline.Result{}, SampleStats{}, err
	}
	return res, st, nil
}

// checkpointFeed is the CheckpointSource of a RunSampledBuilding run:
// the warming pass offers each point as it takes it, and each interval's
// RestoreNearest waits until the pass has passed the interval's start.
// Points lie at every multiple of every, so which point each interval
// restores is known before the pass starts: the feed copies only those
// points, keeps a copy while an interval has yet to restore it, and
// makes the pass wait while limit copies are alive. An interval that
// ends without restoring its point (it failed, or was skipped after a
// cancellation) releases it through release, so no copy outlives the
// intervals that need it and the pass cannot wait forever.
type checkpointFeed struct {
	every  int64
	starts []int64 // each interval's start, increasing
	limit  int     // the most copies alive at once

	mu      sync.Mutex
	cond    sync.Cond
	name    string   // the configuration the points were taken under
	built   int      // the points the pass has taken
	pending []bool   // per interval, whether it has yet to restore its point
	need    []int    // per point, the intervals that have yet to restore it
	copies  [][]byte // per point, its state while an interval needs it
	free    [][]byte // the buffers of released copies, for the next ones
	alive   int      // copies alive
	peak    int      // the most copies ever alive
	done    bool     // the pass has ended
	err     error    // why the pass ended before its last point
	closed  bool     // the run has ended: no interval restores any more
}

// newCheckpointFeed sizes the feed of a run of sp over [warmup,
// warmup+insts) whose pass takes a point at every multiple of every: it
// counts, for each point, the intervals that start on or after it and
// before the next, and lets workers+1 copies live.
func newCheckpointFeed(sp SamplingParams, warmup, insts, every int64) (*checkpointFeed, error) {
	if err := sp.validate(insts); err != nil {
		return nil, err
	}
	upTo := warmup + insts
	if every < 1 || upTo < every {
		return nil, fmt.Errorf("core: checkpoint spacing %d over %d instructions", every, upTo)
	}
	count := CheckpointCount(every, upTo)
	f := &checkpointFeed{
		every: every, starts: sp.starts(warmup, insts), limit: sampleWorkers(sp) + 1,
		pending: make([]bool, sp.Intervals), need: make([]int, count), copies: make([][]byte, count),
	}
	f.cond.L = &f.mu
	for i, s := range f.starts {
		if k := f.point(s); k >= 0 {
			f.pending[i] = true
			f.need[k]++
		}
	}
	return f, nil
}

// point returns the index of the point nearest at or before inst, or -1
// when every point lies past it.
func (f *checkpointFeed) point(inst int64) int {
	return int(min(inst/f.every, int64(len(f.need)))) - 1
}

// offer takes the pass's next point: it copies the point when an
// interval will restore it, first waiting while limit copies are alive.
func (f *checkpointFeed) offer(ck *pipeline.Checkpoint) {
	f.mu.Lock()
	defer f.mu.Unlock()
	k := f.built
	f.name = ck.ConfigName
	if f.need[k] > 0 {
		for f.alive >= f.limit && !f.closed {
			f.cond.Wait()
		}
		if !f.closed {
			var buf []byte
			if n := len(f.free); n > 0 {
				buf, f.free = f.free[n-1], f.free[:n-1]
			}
			f.copies[k] = append(buf[:0], ck.State...)
			f.alive++
			f.peak = max(f.peak, f.alive)
		}
	}
	f.built++
	f.cond.Broadcast()
}

// finish records the end of the pass, and err, why it ended early if it
// did, and releases every interval that waits for a point it did not
// take.
func (f *checkpointFeed) finish(err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.done, f.err = true, err
	f.cond.Broadcast()
}

// close records the end of the run: the pass copies nothing more and
// waits for no release.
func (f *checkpointFeed) close() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.closed = true
	clear(f.copies)
	f.free = nil
	f.cond.Broadcast()
}

// release drops interval i's claim on its point, if it still holds one,
// and the point's copy with the last claim.
func (f *checkpointFeed) release(i int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.pending[i] {
		return
	}
	f.pending[i] = false
	k := f.point(f.starts[i])
	if f.need[k]--; f.need[k] == 0 && f.copies[k] != nil {
		f.free = append(f.free, f.copies[k])
		f.copies[k] = nil
		f.alive--
		f.cond.Broadcast()
	}
}

// RestoreNearest implements CheckpointSource for the run's intervals:
// inst must be an interval's start. It waits until the pass has taken
// the interval's point or ended, restores the point from its copy and
// releases it.
func (f *checkpointFeed) RestoreNearest(p *pipeline.Processor, inst int64) (int64, bool, error) {
	i := sort.Search(len(f.starts), func(i int) bool { return f.starts[i] >= inst })
	if i == len(f.starts) || f.starts[i] != inst {
		return 0, false, fmt.Errorf("core: no interval starts at instruction %d", inst)
	}
	k := f.point(inst)
	if k < 0 {
		return 0, false, nil
	}
	f.mu.Lock()
	for f.built <= k && !f.done {
		f.cond.Wait()
	}
	state, err, name := f.copies[k], f.err, f.name
	f.mu.Unlock()
	if state == nil {
		if err == nil {
			err = errors.New("the point was not kept")
		}
		return 0, false, fmt.Errorf("core: checkpoint pass: %w", err)
	}
	at := int64(k+1) * f.every
	err = p.Restore(&pipeline.Checkpoint{InstOffset: at, ConfigName: name, State: state})
	f.release(i)
	if err != nil {
		return 0, false, err
	}
	return at, true, nil
}
