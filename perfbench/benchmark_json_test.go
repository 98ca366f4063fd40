package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// TestBenchmarkJSONMatchesPerfbench pins BENCHMARK.json to what
// perfbench runs and prints: its workloads, and its per-layer metrics with
// their units and directions.
func TestBenchmarkJSONMatchesPerfbench(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []e2eMetric             `json:"end_to_end"`
		PerLayer  []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	var names, want []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	for w := range workloadFuncs {
		want = append(want, w)
	}
	sort.Strings(names)
	sort.Strings(want)
	if len(names) != len(want) {
		t.Fatalf("BENCHMARK.json workloads %v, perfbench runs %v", names, want)
	}
	for i := range names {
		if names[i] != want[i] {
			t.Fatalf("BENCHMARK.json workloads %v, perfbench runs %v", names, want)
		}
	}
	if len(bf.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, perfbench %d", len(bf.PerLayer), len(layerMetrics))
	}
	for i, m := range layerMetrics {
		got := bf.PerLayer[i]
		if got.Name != m.name || got.Unit != m.unit || got.Better != m.better {
			t.Errorf("per_layer[%d] = %+v, perfbench has %s %s %s", i, got, m.name, m.unit, m.better)
		}
	}
	setup := false
	for _, m := range bf.EndToEnd {
		setup = setup || m.Name == "setup_s"
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !setup {
		t.Error("end_to_end has no setup_s")
	}
}
