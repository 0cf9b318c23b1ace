#!/usr/bin/env bash
# Builds the pipeline benchmark from source and runs it with the given
# arguments, from the root of a PDT checkout:
#
#   bash pipebench/run.sh --workload compile --seed 1 --seconds 20 --trace 0
#
# Everything it builds or writes stays in .bench_build/ under the
# checkout, including the Go build cache.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$here" && go build -o "$out/pipebench" .)
exec "$out/pipebench" --workdir "$out/work" "$@"
