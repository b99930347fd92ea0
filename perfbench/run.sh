#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout, then runs it with
# the given arguments (--workload NAME --seed N --seconds S --trace 0|1).
# Every build and run output stays under the checkout: .bench_build holds
# the Go build cache and the binary, .bench_out the detailed reports and
# span files.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOPATH="$build/gopath" GOFLAGS="-mod=mod" GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
cd "$root"
exec "$build/perfbench" --out "$root/.bench_out" "$@"
