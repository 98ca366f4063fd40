package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the steadiness check reads.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []e2eMetric `json:"end_to_end"`
}

type e2eMetric struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// runResult is the last line of a run's output.
type runResult struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// lastLineResult parses the result object a run prints last.
func lastLineResult(out []byte) (runResult, error) {
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var r runResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		return r, fmt.Errorf("last line is not a result: %w", err)
	}
	return r, nil
}

// worse returns how much worse b is than a, as a share of a, for a
// metric where better is "higher" or "lower" (negative = b is better).
func worse(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// The steadiness check: two sets of ten runs per workload.
const (
	steadySets = 2
	steadyRuns = 10
)

// steady runs steadySets sets of steadyRuns untraced runs of every
// workload in BENCHMARK.json (seeds 1..steadyRuns in each set, workloads
// interleaved), then prints each end-to-end metric's spread per set and
// the gap between the two sets' medians against its bound. setup_s is
// printed on its own, after the others: its spread is not judged, only
// its median gap.
func steady(bfPath, buildDir string) error {
	raw, err := os.ReadFile(bfPath)
	if err != nil {
		return err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("%s: %w", bfPath, err)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	// values[set][workload][metric] = one value per run
	var values [steadySets]map[string]map[string][]float64
	for s := range values {
		values[s] = map[string]map[string][]float64{}
		for r := 1; r <= steadyRuns; r++ {
			for _, w := range bf.Workloads {
				cmd := exec.Command(self, "-build-dir", buildDir, "-workload", w.Name, "-seed", strconv.Itoa(r),
					"-seconds", strconv.Itoa(bf.RunSeconds), "-trace", "0")
				var stdout bytes.Buffer
				cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
				if err := cmd.Run(); err != nil {
					return fmt.Errorf("set %d run %d %s: %w", s+1, r, w.Name, err)
				}
				res, err := lastLineResult(stdout.Bytes())
				if err != nil {
					return fmt.Errorf("set %d run %d %s: %w", s+1, r, w.Name, err)
				}
				if !res.Correct {
					return fmt.Errorf("set %d run %d %s: incorrect (%d of %d ops failed)", s+1, r, w.Name, res.Failed, res.Attempted)
				}
				if values[s][w.Name] == nil {
					values[s][w.Name] = map[string][]float64{}
				}
				line := fmt.Sprintf("set %d run %2d %-15s", s+1, r, w.Name)
				for _, m := range bf.EndToEnd {
					v := res.Metrics[m.Name].Value
					values[s][w.Name][m.Name] = append(values[s][w.Name][m.Name], v)
					line += fmt.Sprintf(" %s=%.4g", m.Name, v)
				}
				fmt.Fprintln(os.Stderr, line)
			}
		}
	}

	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	fmt.Fprintf(out, "steadiness: %d sets × %d runs, %ds windows; spread = IQR/median (Python quantiles), gap = set-2 median worse than set 1\n",
		steadySets, steadyRuns, bf.RunSeconds)
	fmt.Fprintf(out, "%-15s %-16s %6s %12s %8s %12s %8s %8s  verdict\n",
		"workload", "metric", "bound", "median1", "spread1", "median2", "spread2", "gap")
	row := func(w string, m e2eMetric) {
		a, b := values[0][w][m.Name], values[1][w][m.Name]
		gap := worse(median(a), median(b), m.Better)
		verdict := "ok"
		for _, xs := range [][]float64{a, b} {
			if sp := spread(xs); m.Name != "setup_s" && sp > m.Bound {
				verdict = "SPREAD OVER BOUND"
			} else if m.Name != "setup_s" && sp > m.Bound/3 && verdict == "ok" {
				verdict = "spread over bound/3"
			}
		}
		if gap > m.Bound {
			verdict = "GAP OVER BOUND"
		}
		fmt.Fprintf(out, "%-15s %-16s %6.3f %12.4f %8.4f %12.4f %8.4f %8.4f  %s\n",
			w, m.Name, m.Bound, median(a), spread(a), median(b), spread(b), gap, verdict)
	}
	for _, w := range bf.Workloads {
		for _, m := range bf.EndToEnd {
			if m.Name != "setup_s" {
				row(w.Name, m)
			}
		}
	}
	fmt.Fprintln(out, "setup_s (spread not judged; the median gap is):")
	for _, w := range bf.Workloads {
		for _, m := range bf.EndToEnd {
			if m.Name == "setup_s" {
				row(w.Name, m)
			}
		}
	}
	return nil
}
