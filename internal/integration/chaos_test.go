package integration

import (
	"context"
	"errors"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"bebop/internal/core"
	"bebop/internal/engine"
	"bebop/internal/faultinject"
	"bebop/internal/perf"
	"bebop/internal/telemetry"
	"bebop/internal/trace"
	"bebop/internal/workload"
	"bebop/sim"
)

// The chaos suite drives the fault-injection registry through the real
// stack: every failure the resilience layer claims to absorb is
// injected here and the observable behavior pinned. None of these tests
// call t.Parallel — the Default registry is process-global, and an
// armed point must not fire under an unrelated test.

// armFault arms one point on the Default registry and guarantees a
// clean registry after the test whatever happens.
func armFault(t *testing.T, point string, plan faultinject.Plan) {
	t.Helper()
	faultinject.Default.Reset()
	t.Cleanup(faultinject.Default.Reset)
	faultinject.Default.Arm(point, plan)
}

// TestChaosCheckpointReadFaultRebuildsTransparently: a failing
// checkpoint side-file read (corrupt file, IO error) must not fail a
// sampled run — the SDK rebuilds the checkpoints and the result is
// bit-identical to the healthy path.
func TestChaosCheckpointReadFaultRebuildsTransparently(t *testing.T) {
	const warmup, insts = 60_000, 240_000
	src := recordTestTrace(t, t.TempDir(), "gcc", warmup+insts)
	w := int64(warmup)
	spec := sim.RunSpec{
		Trace:     src.Path,
		Config:    "eole-bebop",
		Predictor: "Medium",
		Insts:     insts,
		Warmup:    &w,
		Sampling: &sim.SamplingSpec{
			Intervals:     8,
			IntervalInsts: 4_000,
			Warmup:        20_000,
			DetailWarmup:  1_000,
			Checkpoints:   true,
		},
	}

	// Healthy pass builds the side-file and gives the reference report.
	ref, err := sim.Run(context.Background(), spec)
	if err != nil {
		t.Fatalf("healthy run: %v", err)
	}
	if ref.Sampling == nil || ref.Sampling.CheckpointsUsed == 0 {
		t.Fatalf("healthy run used no checkpoints: %+v", ref.Sampling)
	}

	// Every read of the side-file now fails; the run must rebuild and
	// agree with the reference bit for bit.
	armFault(t, "trace.checkpoint.read", faultinject.Plan{Every: 1})
	got, err := sim.Run(context.Background(), spec)
	if err != nil {
		t.Fatalf("run under checkpoint-read fault: %v", err)
	}
	if got.Cycles != ref.Cycles || got.Insts != ref.Insts || got.IPC != ref.IPC {
		t.Errorf("rebuilt-checkpoint run diverged:\nref: cycles=%d insts=%d ipc=%.6f\ngot: cycles=%d insts=%d ipc=%.6f",
			ref.Cycles, ref.Insts, ref.IPC, got.Cycles, got.Insts, got.IPC)
	}
	if got.Sampling.CheckpointsUsed != ref.Sampling.CheckpointsUsed {
		t.Errorf("checkpoints used: %d, want %d", got.Sampling.CheckpointsUsed, ref.Sampling.CheckpointsUsed)
	}
	if faultinject.Default.Fires("trace.checkpoint.read") == 0 {
		t.Fatal("fault never fired; the test proved nothing")
	}
}

// TestChaosCheckpointPointFaultRebuildsTransparently: a side-file point
// that fails to decode when an interval restores it (here every decode
// fails) must not fail the sampled run: the SDK rebuilds the side-file
// once, reruns from the rebuilt points, and the report is bit-identical
// to the healthy path.
func TestChaosCheckpointPointFaultRebuildsTransparently(t *testing.T) {
	const warmup, insts = 20_000, 80_000
	src := recordTestTrace(t, t.TempDir(), "gcc", warmup+insts)
	w := int64(warmup)
	spec := sim.RunSpec{
		Trace:     src.Path,
		Config:    "eole-bebop",
		Predictor: "Medium",
		Insts:     insts,
		Warmup:    &w,
		Sampling: &sim.SamplingSpec{
			Intervals:     4,
			IntervalInsts: 2_000,
			Warmup:        5_000,
			DetailWarmup:  500,
			Checkpoints:   true,
		},
	}
	ref, err := sim.Run(context.Background(), spec)
	if err != nil {
		t.Fatalf("healthy run: %v", err)
	}
	if ref.Sampling == nil || ref.Sampling.CheckpointsUsed != spec.Sampling.Intervals {
		t.Fatalf("healthy run did not restore every interval: %+v", ref.Sampling)
	}

	rebuilt := telemetry.Default.Counter(`bebop_sim_checkpoint_files_total{outcome="rebuilt"}`, "")
	reused := telemetry.Default.Counter(`bebop_sim_checkpoint_files_total{outcome="reused"}`, "")
	b0, r0 := rebuilt.Value(), reused.Value()
	armFault(t, "trace.checkpoint.point", faultinject.Plan{Every: 1})
	got, err := sim.Run(context.Background(), spec)
	if err != nil {
		t.Fatalf("run under checkpoint-point fault: %v", err)
	}
	if !reflect.DeepEqual(got, ref) {
		t.Errorf("rebuilt-checkpoint run diverged:\nref: %+v\ngot: %+v", ref, got)
	}
	if d := rebuilt.Value() - b0; d != 1 {
		t.Errorf("rebuilt counter rose by %d, want 1", d)
	}
	if d := reused.Value() - r0; d != 0 {
		t.Errorf("reused counter rose by %d, want 0", d)
	}
	if faultinject.Default.Fires("trace.checkpoint.point") == 0 {
		t.Fatal("fault never fired; the test proved nothing")
	}
}

// TestChaosCheckpointWriteFaultFailsRun: a failing side-file write
// fails the sampled run with the write error, and leaves no side-file
// behind for a later run to trust.
func TestChaosCheckpointWriteFaultFailsRun(t *testing.T) {
	const warmup, insts = 60_000, 240_000
	src := recordTestTrace(t, t.TempDir(), "mcf", warmup+insts)
	w := int64(warmup)
	spec := sim.RunSpec{
		Trace:     src.Path,
		Config:    "eole-bebop",
		Predictor: "Medium",
		Insts:     insts,
		Warmup:    &w,
		Sampling: &sim.SamplingSpec{
			Intervals:     8,
			IntervalInsts: 4_000,
			Warmup:        20_000,
			DetailWarmup:  1_000,
			Checkpoints:   true,
		},
	}
	armFault(t, "trace.checkpoint.write", faultinject.Plan{Every: 1})
	_, err := sim.Run(context.Background(), spec)
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("err = %v, want the injected write error", err)
	}
	mk, err := core.NamedFactory(spec.Config, spec.Predictor)
	if err != nil {
		t.Fatal(err)
	}
	path := trace.CheckpointPath(src.Path, mk().Name)
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("side-file %s after a failed write: stat err = %v, want not-exist", path, err)
	}
}

// TestChaosWorkerPanicIsolatedToOneJob: with one job panicking inside
// an engine batch, only that job errors; the others complete and the
// process survives. Workers: 1 serializes execution so the Nth trigger
// deterministically hits exactly one job.
func TestChaosWorkerPanicIsolatedToOneJob(t *testing.T) {
	armFault(t, "engine.worker", faultinject.Plan{Mode: faultinject.ModePanic, Nth: 2})
	e := engine.New[int](engine.Options{Workers: 1})
	jobs := make([]engine.Job[int], 4)
	for i := range jobs {
		i := i
		jobs[i] = engine.Job[int]{
			Key: "cfg", Bench: string(rune('a' + i)),
			Run: func(ctx context.Context) (int, error) { return i, nil },
		}
	}
	out, _ := e.RunBatch(context.Background(), jobs)
	panicked, succeeded := 0, 0
	for _, r := range out {
		if r.Err != nil {
			var pe *engine.PanicError
			if !errors.As(r.Err, &pe) {
				t.Fatalf("job %s failed with a non-panic error: %v", r.Bench, r.Err)
			}
			panicked++
			continue
		}
		succeeded++
	}
	if panicked != 1 || succeeded != 3 {
		t.Fatalf("panicked=%d succeeded=%d, want exactly 1 job lost of 4", panicked, succeeded)
	}
}

// TestChaosFrameDecodeFaultFailsCleanly: a fault mid-trace-decode ends
// the replay with an error naming the injection — never a hang, never
// a silent short run.
func TestChaosFrameDecodeFaultFailsCleanly(t *testing.T) {
	const insts = 20_000
	src := recordTestTrace(t, t.TempDir(), "gcc", 3*insts)
	armFault(t, "trace.frame.decode", faultinject.Plan{Nth: 3})
	_, err := core.RunSourceCtx(context.Background(), src, insts/2, insts, perf.Configs()[0].Mk)
	if err == nil {
		t.Fatal("decode fault did not surface")
	}
	if !strings.Contains(err.Error(), "frame decode") {
		t.Fatalf("error does not name the decode stage: %v", err)
	}
}

// TestChaosSlowWorkerTimesOut: a stalled simulation (injected delay at
// core.run) is bounded by the caller's deadline instead of wedging the
// worker forever.
func TestChaosSlowWorkerTimesOut(t *testing.T) {
	armFault(t, "core.run", faultinject.Plan{Mode: faultinject.ModeDelay, Sleep: 150 * time.Millisecond, Every: 1})
	prof, ok := workload.ProfileByName("gcc")
	if !ok {
		t.Fatal("unknown workload gcc")
	}
	src := workload.ProfileSource{Prof: prof}
	ctx, cancel := context.WithTimeout(context.Background(), 40*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := core.RunSourceCtx(ctx, src, 1_000, 100_000_000, perf.Configs()[0].Mk)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("slow worker held the caller %v past its 40ms deadline", elapsed)
	}
}

// TestChaosIntervalPanicFailsRunNotProcess: an injected panic inside a
// sampled interval fails the sampled run with a stack-carrying error;
// the next run on the same pool is healthy (the poisoned processor was
// not recycled).
func TestChaosIntervalPanicFailsRunNotProcess(t *testing.T) {
	const warmup, insts = 40_000, 160_000
	src := recordTestTrace(t, t.TempDir(), "gcc", warmup+insts)
	sp := core.SamplingParams{
		Intervals:     8,
		IntervalInsts: 4_000,
		WarmupInsts:   10_000,
		DetailWarmup:  1_000,
	}
	armFault(t, "core.interval", faultinject.Plan{Mode: faultinject.ModePanic, Nth: 3})
	_, _, err := core.RunSampled(context.Background(), src, warmup, insts, perf.Configs()[0].Mk, sp)
	if err == nil {
		t.Fatal("interval panic did not fail the run")
	}
	if !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("error does not report the panic: %v", err)
	}

	// Disarmed, the same pool serves a healthy deterministic run.
	faultinject.Default.Reset()
	ref, _, err := core.RunSampled(context.Background(), src, warmup, insts, perf.Configs()[0].Mk, sp)
	if err != nil {
		t.Fatalf("run after recovered panic: %v", err)
	}
	got, _, err := core.RunSampled(context.Background(), src, warmup, insts, perf.Configs()[0].Mk, sp)
	if err != nil {
		t.Fatal(err)
	}
	if got != ref {
		t.Errorf("post-panic runs nondeterministic:\n%+v\n%+v", ref, got)
	}
}

// TestChaosCheckpointBuildPanicFailsRunNotProcess: a panic while the
// checkpoint side-file is being built (here in the trace frame decoder
// feeding the warming pass) fails the sampled run with a recovered-panic
// error instead of crashing the process, and once disarmed the same
// spec builds its side-file and runs.
func TestChaosCheckpointBuildPanicFailsRunNotProcess(t *testing.T) {
	const warmup, insts = 20_000, 80_000
	src := recordTestTrace(t, t.TempDir(), "gcc", warmup+insts)
	w := int64(warmup)
	spec := sim.RunSpec{
		Trace:  src.Path,
		Config: "baseline",
		Insts:  insts,
		Warmup: &w,
		Sampling: &sim.SamplingSpec{
			Intervals:     4,
			IntervalInsts: 2_000,
			Warmup:        5_000,
			DetailWarmup:  500,
			Checkpoints:   true,
		},
	}
	panics := telemetry.Default.Counter("bebop_core_run_panics_total", "")
	before := panics.Value()
	armFault(t, "trace.frame.decode", faultinject.Plan{Mode: faultinject.ModePanic, Nth: 1})
	var err error
	func() {
		defer func() {
			if rec := recover(); rec != nil {
				t.Errorf("sim.Run let the side-file build panic escape: %v", rec)
			}
		}()
		_, err = sim.Run(context.Background(), spec)
	}()
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("err = %v, want a recovered panic", err)
	}
	if got := panics.Value() - before; got != 1 {
		t.Errorf("bebop_core_run_panics_total advanced by %d, want 1", got)
	}

	faultinject.Default.Reset()
	rep, err := sim.Run(context.Background(), spec)
	if err != nil {
		t.Fatalf("run after recovered panic: %v", err)
	}
	if rep.Sampling == nil || rep.Sampling.CheckpointsUsed != spec.Sampling.Intervals {
		t.Fatalf("disarmed run did not restore every interval: %+v", rep.Sampling)
	}
}
