// Package cli holds the scaffolding every bebop command shares:
// structured diagnostic logging behind the common -log-format flag, and
// the version string.
// Result output (reports, tables, listings) stays on stdout untouched;
// this package only governs the diagnostic stream on stderr, so piping
// a command's output composes with either format.
package cli

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"runtime/debug"
)

// AddLogFormat registers the shared -log-format flag on fs and returns
// its value pointer. Every bebop command registers it on its own flag
// set so `-log-format json` means the same thing everywhere.
func AddLogFormat(fs *flag.FlagSet) *string {
	return fs.String("log-format", "text", "diagnostic log format on stderr: text or json")
}

// InitLogging installs the process-wide slog default writing to stderr
// in the requested format ("" and "text" are the human form, "json"
// one object per line for log collectors).
func InitLogging(format string) error {
	var h slog.Handler
	switch format {
	case "", "text":
		h = slog.NewTextHandler(os.Stderr, nil)
	case "json":
		h = slog.NewJSONHandler(os.Stderr, nil)
	default:
		return fmt.Errorf("unknown -log-format %q (valid: text, json)", format)
	}
	slog.SetDefault(slog.New(h))
	return nil
}

// Fatal logs err through the configured logger and exits non-zero —
// the common tail of every command's error path.
func Fatal(err error) {
	slog.Error(err.Error())
	os.Exit(1)
}

// Version reports the module version, VCS revision and Go toolchain
// baked into the binary by the Go linker — the one version string all
// four commands print for -version. Built without VCS metadata (e.g.
// `go run` from a tarball) it degrades gracefully. It lives here, below
// bebop/sim, so a command that runs no simulation (bebop-trace) prints
// it without linking the simulator.
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
