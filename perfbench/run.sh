#!/usr/bin/env bash
# Builds perfbench from this checkout and runs it with the given
# arguments, from the repository root:
#
#   bash perfbench/run.sh --workload batch-cold --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0
# The go command keeps its telemetry counters and env file under the
# user config directory; point that into the build directory too.
export XDG_CONFIG_HOME="$build/config"
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" "$@"
