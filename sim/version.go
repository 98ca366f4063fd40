package sim

import (
	"bebop/internal/cli"
	"bebop/internal/prof"
)

// Version reports the module version, VCS revision and Go toolchain
// baked into the binary: the one version string all four commands
// print for -version.
func Version() string { return cli.Version() }

// StartCPUProfile begins a CPU profile written to path, returning the
// stop function. An empty path is a no-op. Exposed so perf-facing
// commands keep their -cpuprofile flags without reaching into internal/.
func StartCPUProfile(path string) (stop func(), err error) {
	return prof.StartCPU(path)
}

// WriteHeapProfile captures a post-GC heap profile to path (empty path
// is a no-op).
func WriteHeapProfile(path string) error { return prof.WriteHeap(path) }
