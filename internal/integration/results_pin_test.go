package integration

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"bebop/internal/core"
	"bebop/internal/pipeline"
	"bebop/internal/workload"
)

var updatePin = flag.Bool("update", false, "rewrite testdata/results_pin.golden with the current results")

// TestResultsPin pins absolute simulation results. Every other
// bit-identity test compares two paths of the same code (fold modes,
// checkpoints, replay, processor reuse), so a change that shifts every
// path alike — a latency, a queue size, a scheduling order — passes all
// of them. This one compares against numbers committed in
// testdata/results_pin.golden: one line per (configuration, profile)
// with every integer counter of pipeline.Result. A speed or simplicity
// change leaves the file byte-identical; a fidelity change regenerates
// it with
//
//	go test ./internal/integration -run TestResultsPin -update
//
// and says in its description which lines moved and why.
//
// The three configurations are the baseline, the only value-prediction
// path without EOLE (per-instruction D-VTAGE) and EOLE with the Medium
// BeBoP infrastructure. The runs go through core's pooled run path in
// a fixed order, so processors are recycled across configurations and
// Reset is covered too.
func TestResultsPin(t *testing.T) {
	const warmup, insts = 5000, 10000
	configs := []core.ConfigFactory{
		core.Baseline(),
		core.BaselineVP("D-VTAGE"),
		core.EOLEBeBoP("Medium", core.MediumConfig()),
	}
	var got strings.Builder
	for _, prof := range workload.Profiles() {
		for _, mk := range configs {
			r, err := core.RunSourceCtx(context.Background(), workload.ProfileSource{Prof: prof}, warmup, insts, mk)
			if err != nil {
				t.Fatalf("%s: %v", prof.Name, err)
			}
			got.WriteString(pinLine(prof.Name, r))
		}
	}

	golden := filepath.Join("testdata", "results_pin.golden")
	if *updatePin {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	gotLines := strings.Split(got.String(), "\n")
	wantLines := strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("results pin has %d lines, golden has %d (regenerate with -update)", len(gotLines), len(wantLines))
	}
	moved := 0
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			moved++
			t.Errorf("results moved:\n  want %s\n  got  %s", wantLines[i], gotLines[i])
		}
	}
	if moved > 0 {
		t.Fatalf("%d of %d pinned results moved; a fidelity change regenerates the golden with -update", moved, len(gotLines)-1)
	}
}

// pinLine renders one run as "<config> <profile> name=value ...": every
// integer counter of Stats and VPStats, the cache miss and MSHR-merge
// counters and the predictor storage. The derived floats (IPC, UPC,
// BrMispPKI) are left out: they follow from the counters.
func pinLine(profile string, r pipeline.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s", r.Config, profile)
	writeCounters(&b, "", reflect.ValueOf(r.Stats))
	writeCounters(&b, "VP.", reflect.ValueOf(r.VP))
	fmt.Fprintf(&b, " L1DMisses=%d L2Misses=%d L1DMSHRMerges=%d L2MSHRMerges=%d StorageBits=%d\n",
		r.L1DMisses, r.L2Misses, r.L1DMSHRMerges, r.L2MSHRMerges, r.StorageBits)
	return b.String()
}

// writeCounters appends " <prefix><Field>=<value>" for every field of the
// counter struct v, in declaration order.
func writeCounters(b *strings.Builder, prefix string, v reflect.Value) {
	for i := 0; i < v.NumField(); i++ {
		fmt.Fprintf(b, " %s%s=%v", prefix, v.Type().Field(i).Name, v.Field(i).Interface())
	}
}
