#!/usr/bin/env bash
# Builds the repository benchmark from source and runs it. Invoke from the
# repository root:
#
#   bash perfbench/run.sh --workload campaign --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under the build directory
# (CARGO_TARGET_DIR when set, else .bench_build), inside the checkout.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/gocache" "$build/gotmp"

export GOCACHE=$build/gocache GOTMPDIR=$build/gotmp GOPATH=$build/gopath
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --build-dir "$build" --ref-dir "$root/perfbench/reference" "$@"
