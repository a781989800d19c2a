#!/usr/bin/env bash
# Builds the pipeline benchmark from the surrounding checkout and runs it,
# passing every argument through (see perfbench/README.md). All build and
# run artifacts stay under .bench_build/ at the repository root.
set -euo pipefail
bench_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench_dir")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=
(cd "$bench_dir" && go build -buildvcs=false -o "$build/perfbench" .)
cd "$root"
exec "$build/perfbench" -work "$build" "$@"
