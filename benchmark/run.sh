#!/usr/bin/env bash
# The benchmark's build file: compiles package repro/benchmark from the
# checkout's source and runs it from the checkout root. Everything the
# build writes (binary, Go build cache, work directory, the toolchain's
# own counters) stays under .bench_build in the checkout; nothing is
# downloaded.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
if [ ! -f "$root/go.mod" ]; then
	echo "benchmark/run.sh: $root is not a checkout of the repository (no go.mod)" >&2
	exit 1
fi
build="$root/.bench_build"
mkdir -p "$build/tmp"
cd "$root"
GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
