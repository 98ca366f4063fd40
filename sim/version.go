package sim

import (
	"runtime/debug"

	"bebop/internal/prof"
)

// Version reports the module version, VCS revision and Go toolchain
// baked into the binary by the Go linker — the one version string all
// four commands print for -version. Built without VCS metadata (e.g.
// `go run` from a tarball) it degrades gracefully.
func Version() string {
	out := "bebop"
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return out + " (no build info)"
	}
	ver := bi.Main.Version
	if ver == "" {
		ver = "(devel)"
	}
	out += " " + ver
	var rev, dirty string
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	if len(rev) > 12 {
		rev = rev[:12]
	}
	if rev != "" {
		out += " (" + rev + dirty + ")"
	}
	if bi.GoVersion != "" {
		out += " " + bi.GoVersion
	}
	return out
}

// StartCPUProfile begins a CPU profile written to path, returning the
// stop function. An empty path is a no-op. Exposed so perf-facing
// commands keep their -cpuprofile flags without reaching into internal/.
func StartCPUProfile(path string) (stop func(), err error) {
	return prof.StartCPU(path)
}

// WriteHeapProfile captures a post-GC heap profile to path (empty path
// is a no-op).
func WriteHeapProfile(path string) error { return prof.WriteHeap(path) }
