#!/usr/bin/env bash
# Builds the repository benchmark from the checkout's own sources and runs
# it. Run from the repository root:
#
#   bash _benchsuite/run.sh --workload cold-verdict --seed 1 --seconds 8 --trace 0
#
# Every build and run artefact stays under .bench_build (or
# $CARGO_TARGET_DIR when set): the Go build cache, the binary, the fleets'
# temporary data directories and the span files of traced runs.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" ]]; then
	echo "benchsuite: run from the repository root (go.mod and internal/ not found in $root)" >&2
	exit 2
fi
work=${CARGO_TARGET_DIR:-.bench_build}
[[ $work = /* ]] || work="$root/$work"
mkdir -p "$work/gocache" "$work/gopath" "$work/tmp" "$work/bin"

export GOCACHE="$work/gocache" GOPATH="$work/gopath" GOTMPDIR="$work/tmp" TMPDIR="$work/tmp"
export GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off
export BENCHSUITE_WORK="$work"

(cd "$root/_benchsuite" && go build -o "$work/bin/benchsuite" .)
exec "$work/bin/benchsuite" "$@"
