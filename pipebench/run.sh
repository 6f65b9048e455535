#!/usr/bin/env bash
# Builds the pipeline benchmark and runs it. Run it from the root of the
# repository; everything it builds or writes stays under .bench_build/:
#
#   bash pipebench/run.sh --workload query --seed 1 --seconds 20 --trace 0
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$(pwd)/.bench_build/pipebench"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config" "$out/work"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOPROXY=off GOTOOLCHAIN=local
(cd "$here" && go build -o "$out/pipebench" .)
exec "$out/pipebench" -ref "$here/reference.json" -work "$out/work" "$@"
