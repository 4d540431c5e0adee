#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload wire-int-fleet --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Build cache, binary and span files stay
# under .bench_build/ in the working directory.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
# The go command's caches, temporary files and user configuration
# (telemetry counters included) live under the build directory, so
# nothing outside the working directory is written. The build is pure Go.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	TMPDIR="$build/tmp" GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off CGO_ENABLED=0
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" -out "$build" "$@"
