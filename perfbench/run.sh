#!/usr/bin/env bash
# Builds perfbench from the source tree it sits in and runs it from the
# repository root, passing every argument through:
#
#   bash perfbench/run.sh --workload query-hot --seed 42 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the repository root. Without the repository's module next to it the
# build fails and the script exits non-zero.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
cd "$root"
exec "$build/perfbench" "$@"
