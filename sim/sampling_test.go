package sim

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"bebop/internal/trace"
	"bebop/internal/workload"
)

func TestSampledRunThroughSDK(t *testing.T) {
	s := New(
		WithWorkload("gcc"),
		WithConfig("baseline"),
		WithInsts(40_000),
		WithWarmup(8_000),
		WithSampling(SamplingSpec{Intervals: 4, IntervalInsts: 2_000, Warmup: 4_000, DetailWarmup: 500}),
	)
	rep, err := s.Run(context.Background())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.SchemaVersion != ReportSchemaVersion {
		t.Errorf("report schema %d, want %d", rep.SchemaVersion, ReportSchemaVersion)
	}
	if rep.Sampling == nil {
		t.Fatal("sampled run produced no sampling block")
	}
	if rep.Sampling.Intervals != 4 || len(rep.Sampling.IntervalIPCs) != 4 {
		t.Errorf("sampling block %+v, want 4 intervals", rep.Sampling)
	}
	if rep.IPC != rep.Sampling.IPCMean {
		t.Errorf("report IPC %v != sampled mean %v", rep.IPC, rep.Sampling.IPCMean)
	}
	if rep.Sampling.IPCCI95 <= 0 {
		t.Errorf("degenerate confidence interval %v", rep.Sampling.IPCCI95)
	}

	// Same spec, same report — bit-identically, like every other run.
	rep2, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, rep2) {
		t.Errorf("sampled runs of one spec diverge:\n%+v\n%+v", rep, rep2)
	}

	// The normalized spec round-trips through JSON and revalidation.
	spec, err := s.Spec()
	if err != nil {
		t.Fatal(err)
	}
	if spec.SchemaVersion != RunSpecSchemaVersion {
		t.Errorf("normalized spec schema %d, want %d", spec.SchemaVersion, RunSpecSchemaVersion)
	}
	blob, err := spec.JSON()
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeRunSpec(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	revalidated, err := decoded.Validate()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec, revalidated) {
		t.Errorf("validated sampling spec does not round-trip:\n%+v\n%+v", spec, revalidated)
	}
}

// recordTrace records insts instructions of the named profile into a
// .bbt file in a fresh temporary directory and returns its path.
func recordTrace(t *testing.T, bench string, insts int64) string {
	t.Helper()
	prof, _ := workload.ProfileByName(bench)
	path := filepath.Join(t.TempDir(), bench+trace.Ext)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := trace.Record(f, workload.New(prof, insts), trace.WriterOptions{Name: bench}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestSampledCheckpointSideFileLifecycle(t *testing.T) {
	path := recordTrace(t, "mcf", 60_000)
	spec := RunSpec{
		Trace:    path,
		Config:   "eole-bebop/Medium",
		Insts:    40_000,
		Sampling: &SamplingSpec{Intervals: 4, IntervalInsts: 2_000, DetailWarmup: 500, Checkpoints: true},
	}
	rep1, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatalf("first sampled run (builds checkpoints): %v", err)
	}
	ckPath := trace.CheckpointPath(path, "EOLE_4_60/Medium")
	if _, err := os.Stat(ckPath); err != nil {
		t.Fatalf("checkpoint side-file not written: %v", err)
	}
	if rep1.Sampling.CheckpointsUsed != 4 {
		t.Errorf("first run restored %d intervals from checkpoints, want 4", rep1.Sampling.CheckpointsUsed)
	}
	// Second run loads the side-file instead of rebuilding and must
	// reproduce the report bit-identically.
	rep2, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatalf("second sampled run (loads checkpoints): %v", err)
	}
	if !reflect.DeepEqual(rep1, rep2) {
		t.Errorf("checkpoint reuse changes the report:\n%+v\n%+v", rep1, rep2)
	}

	// A side-file in an older format, or one cut short, is rebuilt
	// once: counted as rebuilt and never as reused, rewritten in the
	// current format, and the run reports what the fresh build reported.
	// A current file stamped with the previous version stands for one an
	// older warming built: the version alone refuses it.
	fresh, err := os.ReadFile(ckPath)
	if err != nil {
		t.Fatal(err)
	}
	freshCF, err := trace.LoadCheckpoints(ckPath)
	if err != nil {
		t.Fatal(err)
	}
	fixture := func(name string) []byte {
		b, err := os.ReadFile(filepath.Join("..", "internal", "trace", "testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	stale := append([]byte(nil), fresh...)
	stale[4]-- // the header's version, after the magic
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"v2", fixture("checkpoint-v2.ckpt")},
		{"v3", fixture("checkpoint-v3.ckpt")},
		{"previous version", stale},
		{"truncated", fresh[:len(fresh)/2]},
	} {
		if err := os.WriteFile(ckPath, tc.data, 0o644); err != nil {
			t.Fatal(err)
		}
		reused, rebuilt := mCkptReused.Value(), mCkptRebuilt.Value()
		rep, err := Run(context.Background(), spec)
		if err != nil {
			t.Fatalf("%s side-file: %v", tc.name, err)
		}
		if d := mCkptRebuilt.Value() - rebuilt; d != 1 {
			t.Errorf("%s side-file: rebuilt counter rose by %d, want 1", tc.name, d)
		}
		if d := mCkptReused.Value() - reused; d != 0 {
			t.Errorf("%s side-file: reused counter rose by %d, want 0", tc.name, d)
		}
		if cf, err := trace.LoadCheckpoints(ckPath); err != nil {
			t.Errorf("%s side-file was not rewritten in the current format: %v", tc.name, err)
		} else if len(cf.Points) != len(freshCF.Points) {
			t.Errorf("%s side-file was rewritten with %d points, the fresh build wrote %d", tc.name, len(cf.Points), len(freshCF.Points))
		}
		if !reflect.DeepEqual(rep, rep1) {
			t.Errorf("%s side-file: rebuilt run diverges from the fresh build:\n%+v\n%+v", tc.name, rep1, rep)
		}
	}
}

// TestSampledCheckpointSideFileRestoresLazily: a sampled run decodes
// only the side-file points its intervals restore. A corrupt point in
// the warmup region, which no interval restores, goes unnoticed and the
// file is reused; a corrupt point an interval restores is found then,
// and the run rebuilds the file once and reports what a fresh build
// reports.
func TestSampledCheckpointSideFileRestoresLazily(t *testing.T) {
	path := recordTrace(t, "gcc", 60_000)
	spec := RunSpec{
		Trace:    path,
		Config:   "baseline",
		Insts:    40_000,
		Sampling: &SamplingSpec{Intervals: 4, IntervalInsts: 2_000, DetailWarmup: 500, Checkpoints: true},
	}
	ref, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatalf("fresh build: %v", err)
	}
	ckPath := trace.CheckpointPath(path, "Baseline_6_60")
	fresh, err := os.ReadFile(ckPath)
	if err != nil {
		t.Fatal(err)
	}
	// The index ends the file, located by its last 8 bytes; entry i
	// holds point i's instruction offset, then the byte offset where its
	// encoding starts — with the point's own instruction offset.
	index := binary.LittleEndian.Uint64(fresh[len(fresh)-8:])
	point := func(i int) (inst, at uint64) {
		e := fresh[index+16*uint64(i):]
		return binary.LittleEndian.Uint64(e), binary.LittleEndian.Uint64(e[8:])
	}
	// The run measures from instruction 20,000 (the default warmup is
	// half of Insts); point 0 lies before point 1, which is at or before
	// that, so no interval restores point 0.
	if inst, _ := point(1); inst > 20_000 {
		t.Fatalf("point 1 at instruction %d: the test wants two points in the warmup region", inst)
	}
	for _, tc := range []struct {
		name            string
		point           int
		reused, rebuilt uint64
	}{
		{"corrupt point in the warmup region", 0, 1, 0},
		{"corrupt point an interval restores", 1, 0, 1},
	} {
		data := append([]byte(nil), fresh...)
		inst, at := point(tc.point)
		binary.LittleEndian.PutUint64(data[at:], inst+1) // disagrees with the index
		if err := os.WriteFile(ckPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		reused, rebuilt := mCkptReused.Value(), mCkptRebuilt.Value()
		rep, err := Run(context.Background(), spec)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if d := mCkptReused.Value() - reused; d != tc.reused {
			t.Errorf("%s: reused counter rose by %d, want %d", tc.name, d, tc.reused)
		}
		if d := mCkptRebuilt.Value() - rebuilt; d != tc.rebuilt {
			t.Errorf("%s: rebuilt counter rose by %d, want %d", tc.name, d, tc.rebuilt)
		}
		if !reflect.DeepEqual(rep, ref) {
			t.Errorf("%s: report diverges from the fresh build:\n%+v\n%+v", tc.name, ref, rep)
		}
		got, err := os.ReadFile(ckPath)
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case tc.rebuilt == 1 && !bytes.Equal(got, fresh):
			t.Errorf("%s: the rebuilt side-file differs from the fresh build", tc.name)
		case tc.rebuilt == 0 && !bytes.Equal(got, data):
			t.Errorf("%s: a reused side-file was rewritten", tc.name)
		}
	}
}

// buildSideFile removes the side-files next to maker's trace and runs
// maker, which writes a fresh one.
func buildSideFile(t *testing.T, maker RunSpec) {
	t.Helper()
	old, err := filepath.Glob(maker.Trace + ".*" + trace.CheckpointExt)
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range old {
		if err := os.Remove(path); err != nil {
			t.Fatal(err)
		}
	}
	rebuilt := mCkptRebuilt.Value()
	if _, err := Run(context.Background(), maker); err != nil {
		t.Fatalf("building the side-file: %v", err)
	}
	if mCkptRebuilt.Value() != rebuilt+1 {
		t.Fatal("the maker did not write a side-file")
	}
}

// runOverSideFile runs spec over the side-file another spec, maker,
// leaves next to spec's trace, which spec must reuse.
func runOverSideFile(t *testing.T, maker, spec RunSpec) Report {
	t.Helper()
	buildSideFile(t, maker)
	reused := mCkptReused.Value()
	rep, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if mCkptReused.Value() != reused+1 {
		t.Fatal("the run did not reuse the side-file the maker wrote")
	}
	return rep
}

// TestCheckpointedRunIndependentOfSideFileSpacing: a checkpointed spec
// reports the same over a side-file whose points another spec spaced
// as over its own. Warming is split-invariant, so an interval that
// restores an earlier point and warms the rest of the way reaches the
// state a point at its start holds.
func TestCheckpointedRunIndependentOfSideFileSpacing(t *testing.T) {
	path := recordTrace(t, "gcc", 60_000)
	// Intervals start every 2,000 from 20,000, on the spec's own points.
	spec := RunSpec{
		Trace:    path,
		Config:   "eole-bebop/Medium",
		Insts:    40_000,
		Sampling: &SamplingSpec{Intervals: 20, Checkpoints: true},
	}
	// Points every 1,333, denser than the spec's, so the spec reuses
	// them, but off its grid: most intervals warm from an earlier point.
	offGrid := spec
	offGrid.Sampling = &SamplingSpec{Intervals: 30, Checkpoints: true}
	own := runOverSideFile(t, spec, spec)
	got := runOverSideFile(t, offGrid, spec)
	if !reflect.DeepEqual(got, own) {
		t.Errorf("the report depends on the side-file's point spacing:\nown:     %+v\noff-grid: %+v", own.Sampling, got.Sampling)
	}
}

// TestCheckpointedRunRebuildsASparserSideFile: a checkpointed spec
// rebuilds a side-file whose first point lies past the spacing it would
// build itself, so every interval restores a point from then on; the
// report equals the one over the spec's own side-file.
func TestCheckpointedRunRebuildsASparserSideFile(t *testing.T) {
	path := recordTrace(t, "gcc", 60_000)
	// Measures [10,000, 30,000) in intervals starting every 1,000.
	spec := RunSpec{
		Trace:    path,
		Config:   "baseline",
		Insts:    20_000,
		Sampling: &SamplingSpec{Intervals: 20, Checkpoints: true},
	}
	// Builds points at 20,000 and 40,000 only.
	sparse := RunSpec{
		Trace:    path,
		Config:   "baseline",
		Insts:    40_000,
		Sampling: &SamplingSpec{Intervals: 2, Checkpoints: true},
	}
	own := runOverSideFile(t, spec, spec)
	buildSideFile(t, sparse)
	rebuilt := mCkptRebuilt.Value()
	got, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if mCkptRebuilt.Value() != rebuilt+1 {
		t.Error("the spec reused the sparser side-file")
	}
	if got.Sampling.CheckpointsUsed != 20 {
		t.Errorf("checkpoints used for %d of 20 intervals", got.Sampling.CheckpointsUsed)
	}
	if !reflect.DeepEqual(got, own) {
		t.Errorf("the rebuilt side-file reports differently:\nown:     %+v\nrebuilt: %+v", own.Sampling, got.Sampling)
	}
}

// TestDefaultCheckpointedIntervalsWarmNothing: with the default warmup
// and interval count, the side-file's points lie on the interval grid,
// so every interval restores the point at its start and records no
// warming span.
func TestDefaultCheckpointedIntervalsWarmNothing(t *testing.T) {
	path := recordTrace(t, "gcc", 30_000)
	rep, err := New(WithTrace(path), WithConfig("eole-bebop/Medium"), WithInsts(20_000),
		WithSampling(SamplingSpec{Checkpoints: true}), WithTelemetry()).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	restored := 0
	for _, sp := range rep.Telemetry.Spans {
		switch sp.Name {
		case "warming", "fast-forward":
			t.Errorf("interval %d records a %s span of %d instructions", sp.Interval, sp.Name, sp.Insts)
		case "restore":
			restored++
		}
	}
	if n := rep.Sampling.Intervals; restored != n || rep.Sampling.CheckpointsUsed != n {
		t.Errorf("%d restore spans and %d checkpoints used, want %d of each", restored, rep.Sampling.CheckpointsUsed, n)
	}
}

func TestSamplingSpecValidation(t *testing.T) {
	base := RunSpec{Workload: "gcc", Insts: 40_000}
	cases := []struct {
		name string
		sp   SamplingSpec
		ok   bool
	}{
		{"defaults", SamplingSpec{}, true},
		{"one interval", SamplingSpec{Intervals: 1}, false},
		{"negative warmup", SamplingSpec{Warmup: -1}, false},
		{"negative detail warmup", SamplingSpec{DetailWarmup: -1}, false},
		{"overflows stride", SamplingSpec{Intervals: 4, IntervalInsts: 20_000}, false},
	}
	for _, tc := range cases {
		spec := base
		spec.Sampling = &tc.sp
		_, err := spec.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: no error", tc.name)
		}
	}

	// Defaults are filled in and the caller's struct is not aliased.
	spec := base
	sp := SamplingSpec{}
	spec.Sampling = &sp
	out, err := spec.Validate()
	if err != nil {
		t.Fatal(err)
	}
	if out.Sampling.Intervals != 20 || out.Sampling.IntervalInsts != 200 ||
		out.Sampling.Warmup != 1600 || out.Sampling.DetailWarmup != 50 {
		t.Errorf("defaults not applied: %+v", out.Sampling)
	}
	if sp != (SamplingSpec{}) {
		t.Errorf("Validate mutated the caller's SamplingSpec: %+v", sp)
	}

	// Checkpoints need a file to live next to: an inline profile, a
	// synthetic catalog entry and a probe have none.
	prof := Profiles()[0]
	for _, spec := range []RunSpec{{Profile: &prof}, {Workload: "gcc"}, {Workload: "probe/vp-stride/16"}} {
		spec.Insts, spec.Sampling = 40_000, &SamplingSpec{Checkpoints: true}
		if _, err := spec.Validate(); !errors.Is(err, ErrInvalidSpec) {
			t.Errorf("checkpoints over workload %q, profile %v: %v, want ErrInvalidSpec", spec.Workload, spec.Profile != nil, err)
		}
	}
}
