// Package perf pins the (configuration, workload) matrix the repository
// measures and cross-checks the simulator on: six workloads covering
// predictable, mixed, memory-bound, branchy and FP behaviour, each under
// the plain pipeline and the full BeBoP EOLE stack. perfbench runs the
// same six workloads under the same two configurations, and the
// integration differential suites run Configs.
package perf

import "bebop/internal/core"

// PinnedWorkloads is the fixed benchmark subset: predictable (swim),
// mixed (gcc, bzip2), memory-bound (mcf), branchy (xalancbmk) and FP
// (milc) behaviour, so hot-path regressions on any axis show up.
func PinnedWorkloads() []string {
	return []string{"swim", "gcc", "mcf", "bzip2", "xalancbmk", "milc"}
}

// Configs returns the pinned configuration matrix: the plain pipeline and
// the full BeBoP EOLE stack, the two ends of the per-instruction work
// spectrum.
func Configs() []struct {
	Name string
	Mk   core.ConfigFactory
} {
	return []struct {
		Name string
		Mk   core.ConfigFactory
	}{
		{"Baseline_6_60", core.Baseline()},
		{"EOLE_4_60/Medium", core.EOLEBeBoP("Medium", core.MediumConfig())},
	}
}
