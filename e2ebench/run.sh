#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout and runs it with the
# given arguments, from the repository root:
#
#   bash e2ebench/run.sh --workload aids-served --seed 1 --seconds 8 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, the binary, the durable stores of a run and
# the span files of traced runs.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go -C e2ebench build -o "$out/e2ebench" . >&2
exec "$out/e2ebench" "$@"
