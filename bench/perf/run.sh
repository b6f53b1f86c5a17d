#!/usr/bin/env bash
# Builds the host-cost benchmark from source and runs it with the given
# arguments. Run it from the repository root:
#
#   bash bench/perf/run.sh -workload big-n -seed 1 -seconds 20 -trace 0
#
# The Go build cache and the binary go to .bench_build/ in the current
# directory, so a run reads and writes nothing outside the checkout.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
build="$(pwd)/.bench_build"
mkdir -p "$build/go-cache" "$build/go-tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/go-tmp" GOPATH="$build/go-path"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$here" && go build -o "$build/perf" .)
exec "$build/perf" "$@"
