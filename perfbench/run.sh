#!/usr/bin/env bash
# Builds perfbench and bebop-serve from this checkout, then runs perfbench
# with the given arguments (see perfbench/README.md):
#
#   bash perfbench/run.sh --workload serve --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at the
# root of the checkout: binaries, the Go build cache, temporary files, the
# per-run working directories and the traced runs' spans and profiles.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/perfbench" ]; then
	echo "perfbench: run from the root of a bebop checkout (go.mod not found)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/gocache" "$out/gopath" "$out/config"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off
export CGO_ENABLED=0

# The build happens here, before perfbench starts, so no compile time is
# ever counted in a measured set-up.
go build -o "$out/bin/perfbench" ./perfbench
go build -o "$out/bin/bebop-serve" ./cmd/bebop-serve

exec "$out/bin/perfbench" -build-dir "$out" "$@"
