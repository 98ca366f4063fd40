package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"bebop/internal/core"
	"bebop/internal/engine"
	"bebop/internal/trace"
	"bebop/internal/workload"
)

// fastOpts keeps experiment tests quick: a 4-benchmark subset spanning
// stride-heavy FP, branchy INT and memory-bound behaviour.
func fastOpts() Options {
	return Options{
		Insts:     30_000,
		Workloads: []string{"swim", "gcc", "mcf", "bzip2"},
	}
}

func TestTable2Rows(t *testing.T) {
	r := NewRunner(fastOpts())
	rows := r.Table2()
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, row := range rows {
		if row.IPC <= 0 || row.PaperIPC <= 0 {
			t.Fatalf("bad row %+v", row)
		}
	}
}

func TestFig5aShape(t *testing.T) {
	r := NewRunner(fastOpts())
	series := r.Fig5a()
	if len(series) != 4 {
		t.Fatalf("Fig 5a needs 4 predictors, got %d", len(series))
	}
	byName := map[string]Series{}
	for _, s := range series {
		byName[s.Name] = s
		for i, sp := range s.Speedup {
			if sp < 0.90 {
				t.Errorf("%s slows down %s to %.3f; VP must not lose >10%%", s.Name, s.Bench[i], sp)
			}
		}
	}
	// D-VTAGE must at least match plain VTAGE on average (it adds stride
	// coverage at the same budget).
	if byName["D-VTAGE"].Summary.GMean < byName["VTAGE"].Summary.GMean-0.01 {
		t.Errorf("D-VTAGE gmean %.3f below VTAGE %.3f",
			byName["D-VTAGE"].Summary.GMean, byName["VTAGE"].Summary.GMean)
	}
}

func TestFig5bEOLECheap(t *testing.T) {
	r := NewRunner(fastOpts())
	s := r.Fig5b()
	// Scaling issue width 6->4 under EOLE should cost little.
	if s.Summary.GMean < 0.93 {
		t.Errorf("EOLE_4_60 gmean %.3f vs Baseline_VP_6_60; should be near 1", s.Summary.GMean)
	}
}

func TestFig7bWindowShape(t *testing.T) {
	r := NewRunner(Options{Insts: 40_000, Workloads: []string{"bzip2", "wupwise"}})
	series := r.Fig7b()
	if len(series) != 7 {
		t.Fatalf("Fig 7b needs 7 sizes, got %d", len(series))
	}
	inf := series[0].Summary.GMean
	none := series[6].Summary.GMean
	w32 := series[4].Summary.GMean
	// No window must be the worst configuration on these loop-heavy
	// workloads; 32 entries must recover most of the unbounded window.
	if none >= w32 {
		t.Errorf("None (%.3f) not worse than 32-entry (%.3f)", none, w32)
	}
	if inf-w32 > 0.05 {
		t.Errorf("32-entry window (%.3f) too far from unbounded (%.3f)", w32, inf)
	}
}

func TestTable3StaticRows(t *testing.T) {
	rows := Table3()
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, row := range rows {
		if row.KB <= 0 || row.PaperKB <= 0 {
			t.Fatalf("bad row %+v", row)
		}
	}
	// Ordering: Small < Medium < Large.
	if !(rows[1].KB < rows[2].KB && rows[2].KB < rows[3].KB) {
		t.Fatalf("storage not monotone: %+v", rows)
	}
}

func TestResultsCached(t *testing.T) {
	r := NewRunner(Options{Insts: 10_000, Workloads: []string{"gzip"}})
	a := r.Results(core.Baseline())
	b := r.Results(core.Baseline())
	if a["gzip"].Cycles != b["gzip"].Cycles {
		t.Fatal("cache returned different results")
	}
	if st := r.Engine().Stats(); st.Runs != 1 || st.Hits != 1 {
		t.Fatalf("runs=%d hits=%d, want 1 run and 1 hit", st.Runs, st.Hits)
	}
}

// TestEachConfigurationRunsOnce: the engine caches by configuration
// name, so a geometry that several figures sweep simulates once. Fig.
// 6a's "6p 2K + 6x256", Fig. 6b's "2K + 6x256", the 64-bit partial-stride
// row and Fig. 7a's "Ideal" are one configuration; all experiments but
// probe together name 36.
func TestEachConfigurationRunsOnce(t *testing.T) {
	r := NewRunner(Options{Insts: 2_000, Workloads: []string{"swim"}})
	for _, id := range ExperimentIDs() {
		if id == "probe" {
			continue
		}
		if _, err := r.Report(id); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
	if runs := r.Engine().Stats().Runs; runs != 36 {
		t.Fatalf("%d simulations of swim, want one per distinct configuration (36)", runs)
	}
}

// TestRenderAll renders experiments through the text emitter, the path
// every format shares: each table carries its registry title.
func TestRenderAll(t *testing.T) {
	r := NewRunner(Options{Insts: 10_000, Workloads: []string{"gzip", "swim"}})
	for id, title := range map[string]string{"table2": "== Table II:", "table3": "== Table III:"} {
		rep, err := r.Report(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		var buf bytes.Buffer
		if err := engine.WriteText(&buf, rep); err != nil {
			t.Fatal(err)
		}
		if rep.ID != id || !strings.HasPrefix(buf.String(), title) {
			t.Fatalf("%s rendered as id %q:\n%s", id, rep.ID, buf.String())
		}
	}
	if _, err := r.Report("bogus"); err == nil {
		t.Fatal("bogus experiment id accepted")
	}
}

func TestExperimentIDsComplete(t *testing.T) {
	want := []string{"table2", "fig5a", "fig5b", "fig6a", "fig6b", "partial", "fig7a", "fig7b", "table3", "fig8", "ablation", "probe"}
	if got := ExperimentIDs(); !slices.Equal(got, want) {
		t.Fatalf("ExperimentIDs() = %v, want %v", got, want)
	}
}

func TestRenderFormats(t *testing.T) {
	r := NewRunner(Options{Insts: 10_000, Workloads: []string{"gzip", "swim"}})

	table2, err := r.Report("table2")
	if err != nil {
		t.Fatal(err)
	}
	var jsonBuf bytes.Buffer
	if err := engine.FormatJSON.Write(&jsonBuf, table2); err != nil {
		t.Fatal(err)
	}
	var reports []engine.Report
	if err := json.Unmarshal(jsonBuf.Bytes(), &reports); err != nil {
		t.Fatalf("JSON output does not parse: %v", err)
	}
	if len(reports) != 1 || reports[0].ID != "table2" || len(reports[0].Rows) != 2 {
		t.Fatalf("unexpected JSON report: %+v", reports)
	}

	table3, err := r.Report("table3")
	if err != nil {
		t.Fatal(err)
	}
	var csvBuf bytes.Buffer
	if err := engine.FormatCSV.Write(&csvBuf, table3); err != nil {
		t.Fatal(err)
	}
	out := csvBuf.String()
	if !strings.HasPrefix(out, "# table3:") || !strings.Contains(out, "label,npred") {
		t.Fatalf("unexpected CSV output:\n%s", out)
	}
}

func TestRunnerCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := NewRunner(Options{Insts: 10_000, Workloads: []string{"gzip"}}).WithContext(ctx)
	for _, id := range []string{"table2", "fig5b"} {
		if _, err := r.Report(id); !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled %s report: got %v, want context.Canceled", id, err)
		}
	}
}

func TestWithWorkloadsSharesCache(t *testing.T) {
	r := NewRunner(Options{Insts: 10_000, Workloads: []string{"gzip", "swim"}})
	r.Results(core.Baseline())
	sub := r.WithWorkloads([]string{"gzip"})
	sub.Results(core.Baseline()) // must be a pure cache hit
	st := r.Engine().Stats()
	if st.Runs != 2 || st.Hits != 1 {
		t.Fatalf("runs=%d hits=%d, want 2 runs and 1 hit", st.Runs, st.Hits)
	}
}

func TestAblationOrdering(t *testing.T) {
	r := NewRunner(Options{Insts: 30_000, Workloads: []string{"swim", "xalancbmk", "gcc"}})
	series := r.Ablations()
	if len(series) != 6 {
		t.Fatalf("%d ablation series", len(series))
	}
	g := map[string]float64{}
	for _, s := range series {
		g[s.Name] = s.Summary.GMean
	}
	// The differential predictors must not lose to their non-differential
	// counterparts, and D-VTAGE must be competitive with D-FCM (the paper
	// prefers it for its critical path, not raw coverage).
	if g["D-VTAGE"] < g["VTAGE"]-0.01 {
		t.Errorf("D-VTAGE (%.3f) below VTAGE (%.3f)", g["D-VTAGE"], g["VTAGE"])
	}
	if g["D-FCM"] < g["FCM"]-0.01 {
		t.Errorf("D-FCM (%.3f) below FCM (%.3f)", g["D-FCM"], g["FCM"])
	}
}

// TestTraceCatalogWorkloads runs a sweep where one workload is a
// recorded .bbt trace: trace-backed workloads flow through the engine
// like synthetic profiles, and replaying a recorded profile reproduces
// the synthetic result bit-identically.
func TestTraceCatalogWorkloads(t *testing.T) {
	prof, _ := workload.ProfileByName("gcc")
	dir := t.TempDir()
	path := filepath.Join(dir, "gcc-replayed"+trace.Ext)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	// Results runs warmup (insts/2) + insts instructions per workload.
	const insts = 4000
	if _, _, err := trace.Record(f, workload.New(prof, insts/2+insts),
		trace.WriterOptions{Name: "gcc-replayed", Seed: prof.Seed}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	cat, err := trace.Catalog(dir)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(Options{
		Insts:     insts,
		Catalog:   cat,
		Workloads: []string{"gcc", "gcc-replayed"},
	})
	res := r.Results(core.Baseline())
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	if len(res) != 2 {
		t.Fatalf("got %d results, want 2: %v", len(res), res)
	}
	if res["gcc"] != res["gcc-replayed"] {
		t.Fatalf("trace workload diverged from its generator:\ngen:   %+v\ntrace: %+v",
			res["gcc"], res["gcc-replayed"])
	}

	// Unknown names must list the catalog.
	bad := r.WithWorkloads([]string{"missing"})
	bad.Results(core.Baseline())
	if err := bad.Err(); err == nil || !errors.Is(err, ErrUnknownBenchmark) ||
		!strings.Contains(err.Error(), "gcc-replayed") {
		t.Fatalf("unknown workload error does not list the catalog: %v", err)
	}
}
