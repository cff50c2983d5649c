#!/usr/bin/env bash
# Builds perfbench from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload read-hot --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Every build product, the Go build cache,
# the go command's own state and the traced run's Perfetto file go under
# .bench_build/ there.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out" "$@"
