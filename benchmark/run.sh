#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ under the current
# directory (the root of a checkout) and runs it with the given arguments.
# Everything the build and the run write stays under .bench_build/: the Go
# build cache, module cache and temporary files, and the go command's own
# configuration and telemetry directory (XDG_CONFIG_HOME).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$PWD/.bench_build"
mkdir -p "$out/gotmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/gotmp" XDG_CONFIG_HOME="$out/config"
export GOFLAGS= GOTOOLCHAIN=local GOWORK=off GOPROXY=off
go build -C "$here" -o "$out/apcache-benchmark" .
if [ "${1:-}" = compare ]; then
	exec "$out/apcache-benchmark" "$@"
fi
exec "$out/apcache-benchmark" -scratch "$out/tmp" "$@"
