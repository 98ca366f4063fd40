package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"bebop/internal/trace"
	"bebop/internal/workload"
	"bebop/sim"
)

func testServer(t *testing.T, cfg serverConfig) *httptest.Server {
	t.Helper()
	s, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.routes())
	t.Cleanup(ts.Close)
	return ts
}

func postJSON(t *testing.T, url string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, blob
}

func TestV1RunSuccessAndDeterminism(t *testing.T) {
	ts := testServer(t, serverConfig{defaultInsts: 5_000, maxInsts: 20_000})

	body := `{"workload":"swim","config":"eole-bebop/Medium","insts":8000}`
	resp1, blob1 := postJSON(t, ts.URL+"/v1/runs", body)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp1.StatusCode, blob1)
	}
	var rep sim.Report
	if err := json.Unmarshal(blob1, &rep); err != nil {
		t.Fatalf("response is not a sim.Report: %v\n%s", err, blob1)
	}
	if rep.SchemaVersion != sim.ReportSchemaVersion || rep.Workload != "swim" ||
		rep.Config != "EOLE_4_60/Medium" || rep.Cycles == 0 || rep.Spec.Insts != 8000 {
		t.Fatalf("unexpected report: %+v", rep)
	}

	// Same spec, same bytes: the run endpoint is deterministic.
	_, blob2 := postJSON(t, ts.URL+"/v1/runs", body)
	if !bytes.Equal(blob1, blob2) {
		t.Fatalf("two runs of the same spec differ:\n%s\n---\n%s", blob1, blob2)
	}

	// And the normalized spec inside the response replays to the same
	// report — the round-trip contract of the SDK.
	specJSON, err := json.Marshal(rep.Spec)
	if err != nil {
		t.Fatal(err)
	}
	_, blob3 := postJSON(t, ts.URL+"/v1/runs", string(specJSON))
	if !bytes.Equal(blob1, blob3) {
		t.Fatalf("replaying the response spec diverged:\n%s\n---\n%s", blob1, blob3)
	}

	// The same spec run in-process through the SDK matches field by field.
	local, err := sim.Run(context.Background(), rep.Spec)
	if err != nil {
		t.Fatal(err)
	}
	var viaHTTP sim.Report
	if err := json.Unmarshal(blob1, &viaHTTP); err != nil {
		t.Fatal(err)
	}
	if local != viaHTTPWithoutPointers(viaHTTP, local) {
		t.Fatalf("HTTP run diverged from in-process run:\nhttp:  %+v\nlocal: %+v", viaHTTP, local)
	}
}

// viaHTTPWithoutPointers compares two reports ignoring pointer identity
// in Spec.Warmup (the values must match; the addresses cannot).
func viaHTTPWithoutPointers(a, b sim.Report) sim.Report {
	if a.Spec.Warmup != nil && b.Spec.Warmup != nil && *a.Spec.Warmup == *b.Spec.Warmup {
		a.Spec.Warmup = b.Spec.Warmup
	}
	return a
}

// TestV1RunProbeWorkload checks probe workloads run over the REST API
// by name: "probe/<family>/<pressure>" is synthesized, not a catalog
// entry, so the run path must accept it like any workload.
func TestV1RunProbeWorkload(t *testing.T) {
	ts := testServer(t, serverConfig{defaultInsts: 5_000})
	resp, blob := postJSON(t, ts.URL+"/v1/runs",
		`{"workload":"probe/vp-stride/16","config":"eole-bebop/Medium","insts":8000}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("probe run: status %d: %s", resp.StatusCode, blob)
	}
	var rep sim.Report
	if err := json.Unmarshal(blob, &rep); err != nil {
		t.Fatalf("response is not a sim.Report: %v\n%s", err, blob)
	}
	if rep.Workload != "probe/vp-stride/16" || rep.Cycles == 0 {
		t.Fatalf("unexpected probe report: %+v", rep)
	}

	// An unknown family is a client error naming the valid families.
	resp, blob = postJSON(t, ts.URL+"/v1/runs", `{"workload":"probe/nope/16"}`)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(blob), "vp-stride") {
		t.Fatalf("bad probe name: status %d: %s", resp.StatusCode, blob)
	}
}

// TestV1RunSampled checks sampled simulation over the REST API: the
// sampling block rides inside the RunSpec, the response carries the
// confidence interval, and with a server -trace-dir the checkpoint
// side-file is built on the first request and reused by later ones —
// the cross-request warmup amortization the side-file exists for.
func TestV1RunSampled(t *testing.T) {
	dir := t.TempDir()
	recordServeTrace(t, filepath.Join(dir, "mcf-t"+trace.Ext), "mcf", 60_000)
	ts := testServer(t, serverConfig{defaultInsts: 5_000, maxInsts: 100_000, traceDir: dir})

	// Synthetic workload, no checkpoints.
	body := `{"workload":"swim","config":"eole-bebop/Medium","insts":40000,
		"sampling":{"intervals":4,"interval_insts":2000,"detail_warmup":500}}`
	resp, blob := postJSON(t, ts.URL+"/v1/runs", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sampled run: status %d: %s", resp.StatusCode, blob)
	}
	var rep sim.Report
	if err := json.Unmarshal(blob, &rep); err != nil {
		t.Fatalf("response is not a sim.Report: %v\n%s", err, blob)
	}
	if rep.Sampling == nil || rep.Sampling.IPCCI95 <= 0 || len(rep.Sampling.IntervalIPCs) != 4 {
		t.Fatalf("sampled report missing its confidence interval: %+v", rep.Sampling)
	}
	_, blob2 := postJSON(t, ts.URL+"/v1/runs", body)
	if !bytes.Equal(blob, blob2) {
		t.Fatalf("two sampled runs of the same spec differ:\n%s\n---\n%s", blob, blob2)
	}

	// Trace-dir workload with checkpoints: the first request pays for the
	// warming pass and writes the side-file next to the trace.
	ckBody := `{"workload":"mcf-t","config":"baseline","insts":40000,
		"sampling":{"intervals":4,"interval_insts":2000,"detail_warmup":500,"checkpoints":true}}`
	resp, blob = postJSON(t, ts.URL+"/v1/runs", ckBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("checkpointed sampled run: status %d: %s", resp.StatusCode, blob)
	}
	if err := json.Unmarshal(blob, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Sampling == nil || rep.Sampling.CheckpointsUsed != 4 {
		t.Fatalf("checkpoints not used: %+v", rep.Sampling)
	}
	ckPath := trace.CheckpointPath(filepath.Join(dir, "mcf-t"+trace.Ext), "Baseline_6_60")
	if _, err := os.Stat(ckPath); err != nil {
		t.Fatalf("checkpoint side-file not written into -trace-dir: %v", err)
	}
	// A later identical request restores from the side-file bit-identically.
	_, blob2 = postJSON(t, ts.URL+"/v1/runs", ckBody)
	if !bytes.Equal(blob, blob2) {
		t.Fatalf("checkpoint reuse changed the response:\n%s\n---\n%s", blob, blob2)
	}

	// A sampling plan that does not fit the (possibly clamped) budget is a
	// client error, like every other invalid spec.
	resp, blob = postJSON(t, ts.URL+"/v1/runs",
		`{"workload":"swim","insts":8000,"sampling":{"intervals":2,"interval_insts":8000}}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized sampling plan: status %d, want 400 (%s)", resp.StatusCode, blob)
	}
}

// recordServeTrace records a short synthetic trace for trace-dir tests.
func recordServeTrace(t *testing.T, path, bench string, insts int64) {
	t.Helper()
	prof, ok := workload.ProfileByName(bench)
	if !ok {
		t.Fatalf("no profile %q", bench)
	}
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
}

func TestV1RunUnknownNames(t *testing.T) {
	ts := testServer(t, serverConfig{defaultInsts: 5_000})

	cases := []struct {
		body string
		want string // a valid name the error body must list
		kind string
	}{
		{`{"workload":"nope"}`, "swim", "workload"},
		{`{"workload":"swim","config":"nope"}`, "eole-bebop", "configuration"},
		{`{"workload":"swim","config":"baseline-vp/nope"}`, "D-VTAGE", "predictor"},
		{`{"workload":"swim","config":"eole-bebop/nope"}`, "Medium", "Table III config"},
	}
	for _, c := range cases {
		resp, blob := postJSON(t, ts.URL+"/v1/runs", c.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", c.body, resp.StatusCode)
		}
		var e struct {
			Error string   `json:"error"`
			Kind  string   `json:"kind"`
			Valid []string `json:"valid"`
		}
		if err := json.Unmarshal(blob, &e); err != nil {
			t.Fatalf("%s: error body is not JSON: %s", c.body, blob)
		}
		if e.Kind != c.kind {
			t.Fatalf("%s: kind %q, want %q", c.body, e.Kind, c.kind)
		}
		found := false
		for _, v := range e.Valid {
			if v == c.want {
				found = true
			}
		}
		if !found || !strings.Contains(e.Error, c.want) {
			t.Fatalf("%s: error body does not list %q: %s", c.body, c.want, blob)
		}
	}
}

// TestV1RunMalformedSpec: a spec that is malformed, or that the
// simulator cannot execute, is a 400 on the sync route and on the async
// one before a run is created, and no simulation panics over it.
func TestV1RunMalformedSpec(t *testing.T) {
	ts := testServer(t, serverConfig{defaultInsts: 5_000})
	before := scrapeMetrics(t, ts.URL)
	for _, body := range []string{
		`{not json`,
		`{"workload":"swim","instz":12}`,               // unknown field
		`{"workload":"swim","trace":"x.bbt"}`,          // mutually exclusive
		`{"workload":"swim","schema_version":99}`,      // future schema
		`{"workload":"swim","trace_dir":"/somewhere"}`, // server-fixed field
		`{"trace":"/etc/passwd"}`,                      // server-side paths rejected
		`{"workload":"swim","insts":-5}`,               // negative budget: 400, not defaulted
		// DepDepth 0, then NumLoops 0: the generator cannot build them.
		`{"profile":{"Name":"p","NumLoops":1,"LoopBodyMin":8,"LoopBodyMax":8,"IterMin":2,"IterMax":2},"insts":3000}`,
		`{"profile":{"Name":"p"}}`,
		`{"workload":"swim","bebop":{"npred":6,"base_entries":100,"tagged_entries":64,"stride_bits":8}}`, // not a power of two
		`{"workload":"swim","bebop":{"npred":9,"base_entries":128,"tagged_entries":64,"stride_bits":8}}`, // past MaxNPred
		`{"workload":"probe/tage-capacity/1073741824"}`,                                                  // past the family's cap
		`{"workload":"swim","sampling":{"checkpoints":true}}`,                                            // no trace file
		`{"workload":"probe/vp-stride/16","sampling":{"checkpoints":true}}`,
	} {
		for _, route := range []string{"/v1/runs", "/v1/runs?async=1"} {
			resp, blob := postJSON(t, ts.URL+route, body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("%s %s: status %d, want 400 (%s)", route, body, resp.StatusCode, blob)
			}
		}
	}
	after := scrapeMetrics(t, ts.URL)
	if _, ok := after["bebop_core_run_panics_total"]; !ok {
		t.Fatal("/metrics carries no bebop_core_run_panics_total")
	}
	if d := after["bebop_core_run_panics_total"] - before["bebop_core_run_panics_total"]; d != 0 {
		t.Errorf("bebop_core_run_panics_total advanced by %v", d)
	}
}

func TestV1RunBudgetClamping(t *testing.T) {
	ts := testServer(t, serverConfig{defaultInsts: 4_000, maxInsts: 6_000})

	// No budget: the server default applies.
	resp, blob := postJSON(t, ts.URL+"/v1/runs", `{"workload":"swim"}`)
	var rep sim.Report
	if resp.StatusCode != http.StatusOK || json.Unmarshal(blob, &rep) != nil {
		t.Fatalf("default run failed: %d %s", resp.StatusCode, blob)
	}
	if rep.Spec.Insts != 4_000 {
		t.Fatalf("default budget = %d, want 4000", rep.Spec.Insts)
	}

	// An oversized request is clamped to -max-insts, and the response
	// spec reports the clamped value.
	resp, blob = postJSON(t, ts.URL+"/v1/runs", `{"workload":"swim","insts":1000000000,"warmup":1000000000}`)
	if resp.StatusCode != http.StatusOK || json.Unmarshal(blob, &rep) != nil {
		t.Fatalf("clamped run failed: %d %s", resp.StatusCode, blob)
	}
	if rep.Spec.Insts != 6_000 || rep.Spec.Warmup == nil || *rep.Spec.Warmup != 6_000 {
		t.Fatalf("budget not clamped: %+v", rep.Spec)
	}
}

func TestV1RunClientCancellation(t *testing.T) {
	// maxInsts high enough that the run would take minutes uncancelled.
	s, err := newServer(serverConfig{defaultInsts: 5_000, maxInsts: 500_000_000})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.routes())
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/runs",
		strings.NewReader(`{"workload":"swim","insts":200000000}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")

	errc := make(chan error, 1)
	go func() {
		_, err := http.DefaultClient.Do(req)
		errc <- err
	}()
	time.Sleep(100 * time.Millisecond)
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("request succeeded; expected the client cancellation to abort it")
	}
	// The handler (and its simulation) must wind down promptly so the
	// worker is free again; Close blocks until all handlers return.
	done := make(chan struct{})
	go func() { ts.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		t.Fatal("server did not release the cancelled run's handler; the simulation kept burning the worker")
	}
}

func TestV1RunTimeout(t *testing.T) {
	ts := testServer(t, serverConfig{
		defaultInsts: 5_000,
		maxInsts:     500_000_000,
		runTimeout:   150 * time.Millisecond,
	})
	resp, blob := postJSON(t, ts.URL+"/v1/runs", `{"workload":"swim","insts":200000000}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 (%s)", resp.StatusCode, blob)
	}
	if !strings.Contains(string(blob), "run-timeout") {
		t.Fatalf("timeout body not actionable: %s", blob)
	}
}

func TestV1CatalogEndpoints(t *testing.T) {
	ts := testServer(t, serverConfig{defaultInsts: 5_000})

	var exp struct {
		Experiments []string `json:"experiments"`
		Formats     []string `json:"formats"`
	}
	getJSON(t, ts.URL+"/v1/experiments", &exp)
	if len(exp.Experiments) == 0 || len(exp.Formats) != 3 {
		t.Fatalf("experiments endpoint: %+v", exp)
	}

	var wl struct {
		Workloads []sim.WorkloadInfo `json:"workloads"`
	}
	getJSON(t, ts.URL+"/v1/workloads", &wl)
	var gridPoints int
	for _, f := range sim.ProbeFamilies() {
		gridPoints += len(f.Grid)
	}
	if len(wl.Workloads) != 36+gridPoints || wl.Workloads[0].Kind != "synthetic" {
		t.Fatalf("workloads endpoint: %d entries, want %d (36 synthetic + %d probe grid points)",
			len(wl.Workloads), 36+gridPoints, gridPoints)
	}

	var cfgs struct {
		Configs      []string `json:"configs"`
		Predictors   []string `json:"predictors"`
		BeBoPConfigs []string `json:"bebop_configs"`
		Policies     []string `json:"policies"`
	}
	getJSON(t, ts.URL+"/v1/configs", &cfgs)
	if len(cfgs.Configs) == 0 || len(cfgs.Predictors) == 0 ||
		len(cfgs.BeBoPConfigs) != 4 || len(cfgs.Policies) != 4 {
		t.Fatalf("configs endpoint: %+v", cfgs)
	}

	var hz struct {
		Status  string `json:"status"`
		Version string `json:"version"`
	}
	getJSON(t, ts.URL+"/healthz", &hz)
	if hz.Status != "ok" || !strings.HasPrefix(hz.Version, "bebop") {
		t.Fatalf("healthz: %+v", hz)
	}
}

func TestV1Sweeps(t *testing.T) {
	ts := testServer(t, serverConfig{defaultInsts: 5_000})

	// table3 is static (no simulation), so this exercises the full sweep
	// path instantly.
	resp, blob := postJSON(t, ts.URL+"/v1/sweeps", `{"experiments":["table3"]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep status %d: %s", resp.StatusCode, blob)
	}
	var tables []sim.ExperimentTable
	if err := json.Unmarshal(blob, &tables); err != nil || len(tables) != 1 || tables[0].ID != "table3" {
		t.Fatalf("sweep response: %v %s", err, blob)
	}

	// Unknown experiment → 400 listing the ids.
	resp, blob = postJSON(t, ts.URL+"/v1/sweeps", `{"experiments":["nope"]}`)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(blob), "table3") {
		t.Fatalf("unknown experiment: %d %s", resp.StatusCode, blob)
	}
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d %s", url, resp.StatusCode, blob)
	}
	if err := json.Unmarshal(blob, v); err != nil {
		t.Fatalf("GET %s: %v\n%s", url, err, blob)
	}
}
