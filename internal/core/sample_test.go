package core

import (
	"context"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"bebop/internal/isa"
	"bebop/internal/pipeline"
	"bebop/internal/workload"
)

func sampleProfile(t *testing.T, name string) workload.Source {
	t.Helper()
	prof, ok := workload.ProfileByName(name)
	if !ok {
		t.Fatalf("unknown profile %q", name)
	}
	return workload.ProfileSource{Prof: prof}
}

// setWorkers runs the interval scheduler with n workers until t ends:
// RunSampled starts GOMAXPROCS of them.
func setWorkers(t *testing.T, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

func TestRunSampledDeterministicAcrossParallelism(t *testing.T) {
	src := sampleProfile(t, "gcc")
	sp := SamplingParams{
		Intervals:     4,
		IntervalInsts: 2000,
		WarmupInsts:   4000,
		DetailWarmup:  500,
	}
	run := func(par int) (pipeline.Result, SampleStats) {
		setWorkers(t, par)
		r, st, err := RunSampled(context.Background(), src, 8000, 40000, Baseline(), sp)
		if err != nil {
			t.Fatalf("RunSampled(par=%d): %v", par, err)
		}
		return r, st
	}
	r1, st1 := run(1)
	r4, st4 := run(4)
	if r1 != r4 {
		t.Errorf("aggregate result depends on parallelism:\npar=1: %+v\npar=4: %+v", r1, r4)
	}
	if !reflect.DeepEqual(st1, st4) {
		t.Errorf("sample stats depend on parallelism:\npar=1: %+v\npar=4: %+v", st1, st4)
	}
	if len(st1.IntervalIPCs) != sp.Intervals {
		t.Fatalf("got %d interval IPCs, want %d", len(st1.IntervalIPCs), sp.Intervals)
	}
	for i, ipc := range st1.IntervalIPCs {
		if ipc <= 0 || math.IsNaN(ipc) {
			t.Errorf("interval %d has degenerate IPC %v", i, ipc)
		}
	}
	if st1.IPCCI95 <= 0 && st1.IPCStdDev > 0 {
		t.Errorf("positive spread (stddev %v) but no confidence interval", st1.IPCStdDev)
	}
	want := int64(sp.Intervals) * sp.IntervalInsts
	if got := int64(r1.Insts); got > want || got < want-64*int64(sp.Intervals) {
		t.Errorf("aggregate measured %d instructions, want ~%d", got, want)
	}
}

// TestRunSampledCheckpointsMatchContinuousWarming pins the checkpoint
// semantics: restoring a snapshot taken at instruction c and warming
// forward to an interval start s must be bit-identical to warming the
// whole prefix [0, s) in one pass — which a checkpoint-free run does
// when its warming window covers every interval start.
func TestRunSampledCheckpointsMatchContinuousWarming(t *testing.T) {
	for _, cfgName := range []string{"baseline", "eole-bebop"} {
		t.Run(cfgName, func(t *testing.T) {
			src := sampleProfile(t, "mcf")
			mk := Baseline()
			if cfgName == "eole-bebop" {
				mk = EOLEBeBoP("Medium", MediumConfig())
			}
			const warmup, insts = 6000, 24000
			points, name, err := BuildCheckpoints(src, mk, 5000, warmup+insts)
			if err != nil {
				t.Fatalf("BuildCheckpoints: %v", err)
			}
			if len(points) == 0 {
				t.Fatal("no checkpoints built")
			}
			if name != mk().Name {
				t.Fatalf("checkpoints labeled %q, config is %q", name, mk().Name)
			}
			base := SamplingParams{
				Intervals:     3,
				IntervalInsts: 2000,
				DetailWarmup:  500,
			}
			full := base
			full.WarmupInsts = warmup + insts // warm continuously from instruction 0
			ckpt := base
			ckpt.Checkpoints = memCheckpoints(points)
			rFull, stFull, err := RunSampled(context.Background(), src, warmup, insts, mk, full)
			if err != nil {
				t.Fatalf("continuous-warming run: %v", err)
			}
			rCkpt, stCkpt, err := RunSampled(context.Background(), src, warmup, insts, mk, ckpt)
			if err != nil {
				t.Fatalf("checkpointed run: %v", err)
			}
			if stCkpt.CheckpointsUsed != base.Intervals {
				t.Errorf("checkpoints used for %d of %d intervals", stCkpt.CheckpointsUsed, base.Intervals)
			}
			if rFull != rCkpt {
				t.Errorf("checkpointed run diverges from continuous warming:\nfull: %+v\nckpt: %+v", rFull, rCkpt)
			}
			if !reflect.DeepEqual(stFull.IntervalIPCs, stCkpt.IntervalIPCs) {
				t.Errorf("interval IPCs diverge:\nfull: %v\nckpt: %v", stFull.IntervalIPCs, stCkpt.IntervalIPCs)
			}
		})
	}
}

// TestCheckpointedIntervalsBelowTheFirstPointWarmFromZero: with
// checkpoints, an interval that starts below the first point warms from
// instruction 0, as the points do, so it reports what continuous
// warming gives; only CheckpointsUsed tells it apart.
func TestCheckpointedIntervalsBelowTheFirstPointWarmFromZero(t *testing.T) {
	src := sampleProfile(t, "gcc")
	mk := Baseline()
	const warmup, insts = 6000, 24000 // intervals start at 6,000, 14,000 and 22,000
	points, _, err := BuildCheckpoints(src, mk, 5000, warmup+insts)
	if err != nil {
		t.Fatal(err)
	}
	base := SamplingParams{Intervals: 3, IntervalInsts: 2000, DetailWarmup: 500}
	full := base
	full.WarmupInsts = warmup + insts
	sparse := base
	sparse.Checkpoints = memCheckpoints(points[1:]) // the first point is at 10,000
	rFull, stFull, err := RunSampled(context.Background(), src, warmup, insts, mk, full)
	if err != nil {
		t.Fatal(err)
	}
	rSparse, stSparse, err := RunSampled(context.Background(), src, warmup, insts, mk, sparse)
	if err != nil {
		t.Fatal(err)
	}
	if stSparse.CheckpointsUsed != 2 {
		t.Errorf("checkpoints used for %d intervals, want 2", stSparse.CheckpointsUsed)
	}
	if rFull != rSparse || !reflect.DeepEqual(stFull.IntervalIPCs, stSparse.IntervalIPCs) {
		t.Errorf("intervals below the first point report differently:\nfull:   %+v\nsparse: %+v", rFull, rSparse)
	}
}

// memCheckpoints is an in-memory CheckpointSource for tests.
type memCheckpoints []*pipeline.Checkpoint

func (m memCheckpoints) RestoreNearest(p *pipeline.Processor, inst int64) (int64, bool, error) {
	var best *pipeline.Checkpoint
	for _, ck := range m {
		if ck.InstOffset <= inst && (best == nil || ck.InstOffset > best.InstOffset) {
			best = ck
		}
	}
	if best == nil {
		return 0, false, nil
	}
	return best.InstOffset, true, p.Restore(best)
}

func TestRunSampledValidation(t *testing.T) {
	src := sampleProfile(t, "gcc")
	bad := []SamplingParams{
		{Intervals: 1, IntervalInsts: 100},                                     // too few intervals
		{Intervals: 4, IntervalInsts: 0},                                       // empty interval
		{Intervals: 4, IntervalInsts: 100, WarmupInsts: -1},                    // negative warmup
		{Intervals: 10, IntervalInsts: 5000},                                   // intervals overflow the region
		{Intervals: 4, IntervalInsts: 2000, DetailWarmup: 9000},                // detail warmup overflows the stride
		{Intervals: 4, IntervalInsts: 2000, DetailWarmup: -2, WarmupInsts: 10}, // negative detail warmup
	}
	for i, sp := range bad {
		if _, _, err := RunSampled(context.Background(), src, 0, 40000, Baseline(), sp); err == nil {
			t.Errorf("case %d (%+v): no error", i, sp)
		}
	}
}

func TestRunSampledCancel(t *testing.T) {
	src := sampleProfile(t, "gcc")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sp := SamplingParams{Intervals: 2, IntervalInsts: 1000}
	if _, _, err := RunSampled(ctx, src, 0, 20000, Baseline(), sp); err == nil {
		t.Error("cancelled context: no error")
	}
}

func TestBuildCheckpointsRejectsInstVP(t *testing.T) {
	src := sampleProfile(t, "gcc")
	if _, _, err := BuildCheckpoints(src, BaselineVP("D-VTAGE"), 2000, 10000); err == nil {
		t.Error("per-instruction VP infrastructure snapshotting should be refused")
	}
}

// panicSource wraps a source so every stream it opens panics after
// `after` instructions, the way a trace decoder hitting a bug would.
type panicSource struct {
	workload.Source
	after int64
}

func (s panicSource) Open(maxInsts int64) (isa.Stream, error) {
	st, err := s.Source.Open(maxInsts)
	if err != nil {
		return nil, err
	}
	return &panicStream{inner: st, left: s.after}, nil
}

type panicStream struct {
	inner isa.Stream
	left  int64
}

func (p *panicStream) Next(in *isa.Inst) bool {
	if p.left == 0 {
		panic("stream decoder bug")
	}
	p.left--
	return p.inner.Next(in)
}

// openPanicSource wraps a source so every Open after the first skip
// panics, the way an inline profile the generator cannot build would.
type openPanicSource struct {
	workload.Source
	skip  int64
	opens *atomic.Int64
}

func (s openPanicSource) Open(maxInsts int64) (isa.Stream, error) {
	if s.opens.Add(1) > s.skip {
		panic("workload cannot be built")
	}
	return s.Source.Open(maxInsts)
}

// TestOpenPanicIsRecovered: every run function opens its streams inside
// the panic guard, so a source whose Open panics fails the run with an
// error, counted by bebop_core_run_panics_total, instead of escaping to
// the caller.
func TestOpenPanicIsRecovered(t *testing.T) {
	sp := SamplingParams{Intervals: 3, IntervalInsts: 1000, DetailWarmup: 200}
	for _, tc := range []struct {
		name   string
		skip   int64 // opens that succeed before the panicking ones
		panics uint64
		run    func(src workload.Source) error
	}{
		{"full run", 0, 1, func(src workload.Source) error {
			_, err := RunSourceCtx(context.Background(), src, 1000, 2000, Baseline())
			return err
		}},
		{"sampled run, budget check", 0, 1, func(src workload.Source) error {
			_, _, err := RunSampled(context.Background(), src, 1000, 6000, Baseline(), sp)
			return err
		}},
		{"sampled run, intervals", 1, uint64(sp.Intervals), func(src workload.Source) error {
			_, _, err := RunSampled(context.Background(), src, 1000, 6000, Baseline(), sp)
			return err
		}},
		{"checkpoint build", 0, 1, func(src workload.Source) error {
			_, _, err := BuildCheckpoints(src, Baseline(), 2000, 10000)
			return err
		}},
	} {
		src := openPanicSource{Source: sampleProfile(t, "gcc"), skip: tc.skip, opens: new(atomic.Int64)}
		panics := mRunPanics.Value()
		var err error
		func() {
			defer func() {
				if rec := recover(); rec != nil {
					t.Errorf("%s: a panic in Open escaped: %v", tc.name, rec)
				}
			}()
			err = tc.run(src)
		}()
		if err == nil || !strings.Contains(err.Error(), "panicked") {
			t.Errorf("%s: err = %v, want a recovered panic", tc.name, err)
		}
		if got := mRunPanics.Value() - panics; got != tc.panics {
			t.Errorf("%s: bebop_core_run_panics_total advanced by %d, want %d", tc.name, got, tc.panics)
		}
	}
}

// TestBuildCheckpointsRecoversStreamPanic: a stream that panics during
// the side-file warming pass fails BuildCheckpoints with an error, and
// the processor the panic seized is dropped instead of pooled.
func TestBuildCheckpointsRecoversStreamPanic(t *testing.T) {
	// sync.Pool drops everything it holds over two collections, so the
	// acquisition after the panic is "new" unless the seized processor
	// went back to the pool.
	runtime.GC()
	runtime.GC()
	panics := mRunPanics.Value()
	var err error
	func() {
		defer func() {
			if rec := recover(); rec != nil {
				t.Errorf("BuildCheckpoints let a stream panic escape: %v", rec)
			}
		}()
		_, _, err = BuildCheckpoints(panicSource{sampleProfile(t, "gcc"), 7000}, Baseline(), 2000, 10000)
	}()
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Errorf("err = %v, want a recovered panic", err)
	}
	if got := mRunPanics.Value() - panics; got != 1 {
		t.Errorf("bebop_core_run_panics_total advanced by %d, want 1", got)
	}

	reused, fresh := mProcReused.Value(), mProcNew.Value()
	if _, err := RunSourceCtx(context.Background(), sampleProfile(t, "gcc"), 1000, 2000, Baseline()); err != nil {
		t.Fatal(err)
	}
	if mProcReused.Value() != reused || mProcNew.Value() != fresh+1 {
		t.Errorf("the processor seized by the panic was pooled and reused")
	}
}
