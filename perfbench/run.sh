#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it
# with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload serve-ratings --seed 1 --seconds 35 --trace 0
#
# Every file the build and the run write goes under .bench_build in the
# current directory: the Go build cache, Go's own config and the binary.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
