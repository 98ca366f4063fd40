package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"bebop/internal/core"
	"bebop/internal/engine"
	"bebop/internal/trace"
	"bebop/internal/workload"
	"bebop/internal/workload/probe"
)

func TestRunMatchesCore(t *testing.T) {
	// The facade must be a veneer: a builder run reproduces the internal
	// core entry point bit for bit.
	rep, err := New(
		WithWorkload("swim"),
		WithConfig("eole-bebop/Medium"),
		WithInsts(20_000),
	).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	prof, _ := workload.ProfileByName("swim")
	want, err := core.RunSourceCtx(context.Background(), workload.ProfileSource{Prof: prof},
		10_000, 20_000, core.EOLEBeBoP("Medium", core.MediumConfig()))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cycles != want.Cycles || rep.Insts != want.Insts || rep.IPC != want.IPC ||
		rep.VP != (VPReport{
			Eligible: want.VP.Eligible, Attributed: want.VP.Attributed,
			Used: want.VP.Used, UsedCorrect: want.VP.UsedCorrect,
			SpecWindowHits: want.VP.SpecWindowHits, SpecWindowProbes: want.VP.SpecWindowProbes,
			Coverage: want.VP.Coverage(), Accuracy: want.VP.Accuracy(),
		}) {
		t.Fatalf("facade diverged from core:\nsim:  %+v\ncore: %+v", rep, want)
	}
	if rep.Config != "EOLE_4_60/Medium" {
		t.Fatalf("resolved config = %q, want EOLE_4_60/Medium", rep.Config)
	}
	if rep.Workload != "swim" || rep.SchemaVersion != ReportSchemaVersion {
		t.Fatalf("report identity wrong: %+v", rep)
	}
}

func TestRunSpecRoundTripDeterminism(t *testing.T) {
	s := New(
		WithWorkload("gcc"),
		WithConfig("baseline-vp"),
		WithPredictor("VTAGE"),
		WithInsts(10_000),
	)
	spec, err := s.Spec()
	if err != nil {
		t.Fatal(err)
	}
	// The normalized spec is a fixed point of Validate.
	again, err := spec.Validate()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec, again) {
		t.Fatalf("Validate is not idempotent:\n1: %+v\n2: %+v", spec, again)
	}
	// JSON round trip preserves the spec exactly.
	blob, err := spec.JSON()
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeRunSpec(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec, decoded) {
		t.Fatalf("JSON round trip changed the spec:\nbefore: %+v\nafter:  %+v", spec, decoded)
	}
	// And the replayed spec reproduces the builder run bit-identically.
	rep1, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := Run(context.Background(), decoded)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep1, rep2) {
		t.Fatalf("replayed spec diverged:\nbuilder: %+v\nspec:    %+v", rep1, rep2)
	}
}

func TestConfigShorthands(t *testing.T) {
	cases := []struct {
		in        RunSpec
		cfg, pred string
	}{
		{RunSpec{Workload: "swim"}, "baseline", ""},
		{RunSpec{Workload: "swim", Config: "baseline-vp"}, "baseline-vp", "D-VTAGE"},
		{RunSpec{Workload: "swim", Config: "baseline-vp/2d-Stride"}, "baseline-vp", "2d-Stride"},
		{RunSpec{Workload: "swim", Config: "EOLE"}, "eole", ""},
		{RunSpec{Workload: "swim", Config: "EOLE/Medium"}, "eole-bebop", "Medium"},
		{RunSpec{Workload: "swim", Config: "eole-bebop"}, "eole-bebop", "Medium"},
		{RunSpec{Workload: "swim", Config: "eole-bebop/Large"}, "eole-bebop", "Large"},
	}
	for _, c := range cases {
		got, err := c.in.Validate()
		if err != nil {
			t.Fatalf("%+v: %v", c.in, err)
		}
		if got.Config != c.cfg || got.Predictor != c.pred {
			t.Fatalf("%q/%q normalized to %q/%q, want %q/%q",
				c.in.Config, c.in.Predictor, got.Config, got.Predictor, c.cfg, c.pred)
		}
	}
}

func TestValidationErrorsListValidNames(t *testing.T) {
	cases := []struct {
		spec RunSpec
		kind string
		name string // a name the error text must list
	}{
		{RunSpec{Workload: "nope"}, "workload", "swim"},
		{RunSpec{Workload: "swim", Config: "nope"}, "configuration", "eole-bebop"},
		{RunSpec{Workload: "swim", Config: "baseline-vp/nope"}, "predictor", "D-FCM"},
		{RunSpec{Workload: "swim", Config: "eole-bebop/nope"}, "Table III config", "Small_4p"},
		{RunSpec{Workload: "swim", BeBoP: &BeBoPConfig{NPred: 6, BaseEntries: 64, TaggedEntries: 64, StrideBits: 8, Policy: "nope"}}, "recovery policy", "DnRDnR"},
	}
	for _, c := range cases {
		_, err := c.spec.Validate()
		var ue *UnknownNameError
		if !errors.As(err, &ue) {
			t.Fatalf("%+v: got %v, want UnknownNameError", c.spec, err)
		}
		if ue.Kind != c.kind {
			t.Fatalf("%+v: kind = %q, want %q", c.spec, ue.Kind, c.kind)
		}
		if !strings.Contains(err.Error(), c.name) {
			t.Fatalf("%+v: error %q does not list %q", c.spec, err, c.name)
		}
	}

	// Structural errors are plain but actionable.
	for _, spec := range []RunSpec{
		{},
		{Workload: "swim", Trace: "x.bbt"},
		{Workload: "swim", Config: "baseline", Predictor: "VTAGE"},
		{Workload: "swim", Config: "eole-bebop/Medium", BeBoP: &BeBoPConfig{NPred: 6, BaseEntries: 64, TaggedEntries: 64, StrideBits: 8}},
		{Workload: "swim", Insts: -1},
		{Workload: "swim", SchemaVersion: RunSpecSchemaVersion + 1},
	} {
		if _, err := spec.Validate(); err == nil {
			t.Fatalf("spec %+v validated, want error", spec)
		}
	}
}

// TestValidateRefusesWhatCannotRun: a spec the simulator cannot execute
// fails validation with ErrInvalidSpec, instead of panicking in the
// generator or the predictor, or building an unbounded probe program.
// Everything the SDK ships must still validate.
func TestValidateRefusesWhatCannotRun(t *testing.T) {
	okProfile := Profile{Name: "p", NumLoops: 1, LoopBodyMin: 8, LoopBodyMax: 8, IterMin: 2, IterMax: 2, DepDepth: 4}
	profile := func(edit func(*Profile)) RunSpec {
		p := okProfile
		edit(&p)
		return RunSpec{Profile: &p, Insts: 3000}
	}
	okGeometry := BeBoPConfig{NPred: 6, BaseEntries: 128, TaggedEntries: 64, StrideBits: 8, WindowSize: 32}
	geometry := func(edit func(*BeBoPConfig)) RunSpec {
		bb := okGeometry
		edit(&bb)
		return RunSpec{Workload: "swim", BeBoP: &bb}
	}
	cases := map[string]RunSpec{
		"profile without DepDepth":        profile(func(p *Profile) { p.DepDepth = 0 }),
		"profile without loops":           {Profile: &Profile{Name: "p"}},
		"profile with negative footprint": profile(func(p *Profile) { p.FootprintLog2 = -1 }),
		"profile with 2^64 footprint":     profile(func(p *Profile) { p.FootprintLog2 = 64 }),
		"profile with negative entropy":   profile(func(p *Profile) { p.HistEntropyLog2 = -1 }),
		"profile with 2^64 contexts":      profile(func(p *Profile) { p.HistEntropyLog2 = 64 }),
		"profile of 2^20 static insts":    profile(func(p *Profile) { p.NumLoops, p.LoopBodyMax = 1024, 1024 }),
		"profile with huge minimum body":  profile(func(p *Profile) { p.LoopBodyMin = 1 << 20 }),
		"profile with negative body":      profile(func(p *Profile) { p.LoopBodyMin = -1 << 62 }),
		"profile with overflowing iters":  profile(func(p *Profile) { p.IterMin, p.IterMax = 0, 1<<63-1 }),
		"profile with negative iters":     profile(func(p *Profile) { p.IterMin = -1 }),
		"geometry of 100 base entries":    geometry(func(bb *BeBoPConfig) { bb.BaseEntries = 100 }),
		"geometry of 96 tagged entries":   geometry(func(bb *BeBoPConfig) { bb.TaggedEntries = 96 }),
		"geometry of 9 predictions":       geometry(func(bb *BeBoPConfig) { bb.NPred = 9 }),
		"geometry of 2^17 base entries":   geometry(func(bb *BeBoPConfig) { bb.BaseEntries = 1 << 17 }),
		"geometry of 2^17 tagged entries": geometry(func(bb *BeBoPConfig) { bb.TaggedEntries = 1 << 17 }),
		"geometry of a 2^17 window":       geometry(func(bb *BeBoPConfig) { bb.WindowSize = 1 << 17 }),
		"geometry of 65-bit strides":      geometry(func(bb *BeBoPConfig) { bb.StrideBits = 65 }),
		"probe of 2^30 branches":          {Workload: "probe/tage-capacity/1073741824"},
	}
	// Each family whose program grows with its pressure is capped at 2^16.
	for _, fam := range []string{"tage-history", "tage-capacity", "tage-dilution", "vp-history", "vp-capacity"} {
		cases["probe "+fam+" past its cap"] = RunSpec{Workload: probe.SourceName(fam, 1<<16+1)}
	}
	for name, spec := range cases {
		if _, err := spec.Validate(); !errors.Is(err, ErrInvalidSpec) {
			t.Errorf("%s: Validate = %v, want ErrInvalidSpec", name, err)
		}
	}

	valid := []RunSpec{
		{Profile: &okProfile},
		{Workload: "swim", BeBoP: &okGeometry},
		{Workload: "swim", BeBoP: &BeBoPConfig{NPred: 8, BaseEntries: 1 << 16, TaggedEntries: 1 << 16, StrideBits: 64, WindowSize: 1 << 16}},
	}
	for _, p := range Profiles() {
		valid = append(valid, RunSpec{Profile: &p})
	}
	for _, f := range probe.Families() {
		for _, pressure := range f.Grid {
			valid = append(valid, RunSpec{Workload: probe.SourceName(f.Name, pressure)})
		}
		if f.Name != "bebop-block" { // whose pressure is capped by the fetch block
			valid = append(valid, RunSpec{Workload: probe.SourceName(f.Name, 1<<16)})
		}
	}
	for _, spec := range valid {
		if _, err := spec.Validate(); err != nil {
			t.Errorf("workload %q, profile %+v, geometry %+v: %v", spec.Workload, spec.Profile, spec.BeBoP, err)
		}
	}
	rep, err := Run(context.Background(), RunSpec{Profile: &okProfile, Insts: 2000})
	if err != nil || rep.Insts == 0 {
		t.Errorf("the smallest valid profile does not run: %v", err)
	}
}

func TestDecodeRejectsUnknownFields(t *testing.T) {
	_, err := DecodeRunSpec(strings.NewReader(`{"workload":"swim","instz":5}`))
	if err == nil || !strings.Contains(err.Error(), "instz") {
		t.Fatalf("unknown field not rejected: %v", err)
	}
}

func TestRunCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	start := time.Now()
	go func() {
		// A budget this large runs for minutes if cancellation fails.
		_, err := New(WithWorkload("swim"), WithConfig("baseline"), WithInsts(50_000_000)).Run(ctx)
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("got %v, want context.Canceled", err)
		}
		if el := time.Since(start); el > 10*time.Second {
			t.Fatalf("cancellation took %s", el)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not stop after cancellation")
	}
}

func TestWarmupOption(t *testing.T) {
	warm, err := New(WithWorkload("swim"), WithInsts(10_000)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	cold, err := New(WithWorkload("swim"), WithInsts(10_000), WithWarmup(0)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if *warm.Spec.Warmup != 5_000 || *cold.Spec.Warmup != 0 {
		t.Fatalf("warmup budgets: warm %d cold %d", *warm.Spec.Warmup, *cold.Spec.Warmup)
	}
	if warm.Cycles == cold.Cycles {
		t.Fatal("cold-pipeline run reported identical cycles to a warmed run; warmup option had no effect")
	}
}

func TestProgressFires(t *testing.T) {
	var calls int
	var lastStreamed, lastTotal int64
	_, err := New(
		WithWorkload("swim"),
		WithInsts(10_000),
		WithProgress(func(streamed, total int64) {
			calls++
			lastStreamed, lastTotal = streamed, total
		}),
	).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Fatal("progress callback never fired")
	}
	if lastTotal != 15_000 || lastStreamed == 0 || lastStreamed > lastTotal {
		t.Fatalf("last progress %d/%d, want total 15000", lastStreamed, lastTotal)
	}
}

func TestCustomProfileAndBeBoP(t *testing.T) {
	prof := Profiles()[0]
	prof.Name = "custom-gzip"
	rep, err := New(
		WithProfile(prof),
		WithBeBoP(BeBoPConfig{NPred: 6, BaseEntries: 128, TaggedEntries: 64, StrideBits: 8, WindowSize: 32}),
		WithInsts(10_000),
	).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Workload != "custom-gzip" {
		t.Fatalf("workload = %q", rep.Workload)
	}
	if !strings.Contains(rep.Config, "custom-6p-128b-64t-8s-w32-DnRDnR") {
		t.Fatalf("custom geometry not reflected in config name: %q", rep.Config)
	}
	if rep.VPStorageBits == 0 {
		t.Fatal("custom BeBoP run reported no predictor storage")
	}
	kb, err := StorageKBOf(rep.Spec)
	if err != nil {
		t.Fatal(err)
	}
	if kb != rep.VPStorageKB() {
		t.Fatalf("StorageKBOf %.3f != report %.3f", kb, rep.VPStorageKB())
	}
}

// TestBeBoPPolicySpellingsNormalize: each pair of geometries below is
// one geometry spelled two ways (ParsePolicy accepts either policy
// spelling, and every negative window size means unbounded), so both
// must validate to one spec and run under one configuration name, the
// key of the engine cache and of the checkpoint side-file.
func TestBeBoPPolicySpellingsNormalize(t *testing.T) {
	base := BeBoPConfig{NPred: 6, BaseEntries: 128, TaggedEntries: 64, StrideBits: 8, WindowSize: 32, Policy: "DnRDnR"}
	for _, tc := range []struct {
		name   string
		edit   [2]func(*BeBoPConfig)
		suffix string
	}{
		{"policy dnrdnr/DnRDnR", [2]func(*BeBoPConfig){
			func(bb *BeBoPConfig) { bb.Policy = "dnrdnr" },
			func(bb *BeBoPConfig) { bb.Policy = "DnRDnR" },
		}, "-w32-DnRDnR"},
		{"window -1/-2", [2]func(*BeBoPConfig){
			func(bb *BeBoPConfig) { bb.WindowSize = -1 },
			func(bb *BeBoPConfig) { bb.WindowSize = -2 },
		}, "-w-1-DnRDnR"},
	} {
		var specs [2]RunSpec
		var configs [2]string
		for i, edit := range tc.edit {
			bb := base
			edit(&bb)
			spec, err := New(WithWorkload("swim"), WithBeBoP(bb), WithInsts(2_000)).Spec()
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			rep, err := Run(context.Background(), spec)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			specs[i], configs[i] = spec, rep.Config
		}
		if !reflect.DeepEqual(specs[0], specs[1]) {
			t.Errorf("%s: spellings normalize to different specs:\n%+v\n%+v", tc.name, *specs[0].BeBoP, *specs[1].BeBoP)
		}
		if configs[0] != configs[1] || !strings.HasSuffix(configs[0], tc.suffix) {
			t.Errorf("%s: spellings run as %q and %q, want one name ending in %s", tc.name, configs[0], configs[1], tc.suffix)
		}
	}
}

func TestSweeper(t *testing.T) {
	sw, err := NewSweeper(SweepOptions{Insts: 5_000})
	if err != nil {
		t.Fatal(err)
	}
	// table3 is static storage accounting: no simulations, fast.
	spec := SweepSpec{Experiments: []string{"table3"}}
	tables, err := sw.Tables(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 || tables[0].ID != "table3" || len(tables[0].Rows) != 4 {
		t.Fatalf("unexpected table3 report: %+v", tables)
	}
	var buf bytes.Buffer
	if err := sw.Write(context.Background(), &buf, "json", spec); err != nil {
		t.Fatal(err)
	}
	var decoded []ExperimentTable
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("sweep JSON does not parse: %v", err)
	}
	buf.Reset()
	if err := sw.Write(context.Background(), &buf, "text", spec); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Table III") {
		t.Fatalf("text output missing title: %q", buf.String())
	}

	var ue *UnknownNameError
	if _, err := sw.Tables(context.Background(), SweepSpec{Experiments: []string{"nope"}}); !errors.As(err, &ue) || ue.Kind != "experiment" {
		t.Fatalf("unknown experiment: got %v", err)
	}
	if _, err := sw.Tables(context.Background(), SweepSpec{Workloads: []string{"nope"}}); !errors.As(err, &ue) || ue.Kind != "workload" {
		t.Fatalf("unknown workload: got %v", err)
	}
	var be *BudgetError
	if _, err := sw.Tables(context.Background(), SweepSpec{Insts: 999}); !errors.As(err, &be) {
		t.Fatalf("budget mismatch: got %v", err)
	}
}

// TestStorageKBOfMatchesRun: the static storage accounting agrees with
// what a run of the same spec reports, for every configuration family.
func TestStorageKBOfMatchesRun(t *testing.T) {
	for _, spec := range []RunSpec{
		{Config: "baseline"},
		{Config: "baseline-vp", Predictor: "D-VTAGE"},
		{Config: "baseline-vp", Predictor: "VTAGE"},
		{Config: "eole"},
		{Config: "eole-bebop", Predictor: "Medium"},
		{Config: "eole-bebop", BeBoP: &BeBoPConfig{NPred: 4, BaseEntries: 256, TaggedEntries: 128, StrideBits: 16, WindowSize: 16}},
	} {
		spec.Workload, spec.Insts = "gzip", 2_000
		kb, err := StorageKBOf(spec)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Run(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if kb != rep.VPStorageKB() {
			t.Errorf("%s/%s: StorageKBOf %.3f KB, run reports %.3f KB", spec.Config, spec.Predictor, kb, rep.VPStorageKB())
		}
	}
}

// TestSweeperTextIsWriteText: text output is the text emitter over the
// same tables JSON and CSV emit — one rendering path for every format.
func TestSweeperTextIsWriteText(t *testing.T) {
	sw, err := NewSweeper(SweepOptions{Insts: 2_000})
	if err != nil {
		t.Fatal(err)
	}
	spec := SweepSpec{Experiments: []string{"table3", "fig5b"}, Workloads: []string{"gzip"}}
	var got bytes.Buffer
	if err := sw.Write(context.Background(), &got, "text", spec); err != nil {
		t.Fatal(err)
	}
	tables, err := sw.Tables(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := engine.WriteText(&want, tables...); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("text sweep differs from engine.WriteText of its tables:\n--- Write\n%s--- WriteText\n%s", got.String(), want.String())
	}
}

// TestSweeperWriteCancelledWritesNothing: a cancelled sweep fails
// before its first byte, in every format.
func TestSweeperWriteCancelledWritesNothing(t *testing.T) {
	sw, err := NewSweeper(SweepOptions{Insts: 2_000})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, format := range Formats() {
		var buf bytes.Buffer
		err := sw.Write(ctx, &buf, format, SweepSpec{Experiments: []string{"table2", "fig5b"}, Workloads: []string{"gzip"}})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: cancelled sweep returned %v, want context.Canceled", format, err)
		}
		if buf.Len() != 0 {
			t.Fatalf("%s: cancelled sweep wrote %d bytes of partial output", format, buf.Len())
		}
	}
}

func TestSweeperTraceWorkloads(t *testing.T) {
	// A SweepSpec naming a trace workload must validate against the
	// session's catalog (which scanned -trace-dir), not a catalog
	// re-derived from the spec — the spec usually doesn't carry
	// trace_dir when the Sweeper already did.
	dir := t.TempDir()
	f, err := os.Create(filepath.Join(dir, "tinygcc.bbt"))
	if err != nil {
		t.Fatal(err)
	}
	g, _ := workload.NewByName("gcc", 3_000)
	if _, _, err := trace.Record(f, g, trace.WriterOptions{Name: "gcc", Seed: g.Profile().Seed}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	sw, err := NewSweeper(SweepOptions{Insts: 1_000, TraceDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, n := range sw.Workloads() {
		if n == "tinygcc" {
			found = true
		}
	}
	if !found {
		t.Fatalf("trace workload missing from sweeper catalog: %v", sw.Workloads())
	}
	// table2 simulates the selected workloads; restricting to the trace
	// name must be accepted and run.
	tables, err := sw.Tables(context.Background(), SweepSpec{
		Experiments: []string{"table2"},
		Workloads:   []string{"tinygcc"},
	})
	if err != nil {
		t.Fatalf("sweep over a trace workload rejected: %v", err)
	}
	if len(tables) != 1 || len(tables[0].Rows) != 1 || tables[0].Rows[0].Label != "tinygcc" {
		t.Fatalf("unexpected table: %+v", tables)
	}
}

func TestSweepSpecSchemaVersion(t *testing.T) {
	for _, v := range []int{0, SweepSpecSchemaVersion} {
		spec, err := SweepSpec{SchemaVersion: v}.Validate()
		if err != nil || spec.SchemaVersion != SweepSpecSchemaVersion {
			t.Fatalf("schema_version %d: got (%d, %v), want (%d, nil)", v, spec.SchemaVersion, err, SweepSpecSchemaVersion)
		}
	}
	for _, v := range []int{-1, SweepSpecSchemaVersion + 1} {
		if _, err := (SweepSpec{SchemaVersion: v}).Validate(); !errors.Is(err, ErrInvalidSpec) {
			t.Fatalf("schema_version %d: got %v, want ErrInvalidSpec", v, err)
		}
	}
}

func TestSweepSpecDedupesExperiments(t *testing.T) {
	spec, err := SweepSpec{Experiments: []string{"fig8", "fig8", "all"}}.Validate()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for _, id := range spec.Experiments {
		seen[id]++
	}
	if seen["fig8"] != 1 || len(spec.Experiments) != len(Experiments()) {
		t.Fatalf("experiment ids not deduped: %v", spec.Experiments)
	}
}

func TestNamesAndVersion(t *testing.T) {
	if v := Version(); !strings.HasPrefix(v, "bebop") {
		t.Fatalf("Version() = %q", v)
	}
	if len(Workloads()) != 36 {
		t.Fatalf("Workloads() = %d names, want 36", len(Workloads()))
	}
	infos, err := ListWorkloads("")
	if err != nil || len(infos) <= 36 || infos[0].Kind != "synthetic" {
		t.Fatalf("ListWorkloads: %v, %d", err, len(infos))
	}
	probes := 0
	for _, info := range infos {
		if info.Kind == "probe" {
			probes++
		}
	}
	var gridPoints int
	for _, f := range probe.Families() {
		gridPoints += len(f.Grid)
	}
	if probes != gridPoints || len(infos) != 36+gridPoints {
		t.Fatalf("ListWorkloads lists %d probe workloads (of %d total), want %d grid points",
			probes, len(infos), gridPoints)
	}
	for _, set := range [][]string{Configs(), Predictors(), InstPredictors(), BeBoPConfigs(), Policies(), Experiments(), Formats()} {
		if len(set) == 0 {
			t.Fatal("empty name set")
		}
	}
	p, err := NewPredictor("D-VTAGE")
	if err != nil || p.Name() == "" {
		t.Fatalf("NewPredictor: %v", err)
	}
	if _, err := NewPredictor("nope"); err == nil {
		t.Fatal("NewPredictor accepted a bad name")
	}
}
