#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash pasobench/run.sh --workload tasks --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Everything the Go toolchain writes (build
# cache, module cache, its config) stays under the build directory, which
# is $CARGO_TARGET_DIR when set and .bench_build otherwise.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/home"

export HOME=$build/home
export GOCACHE=$build/gocache
export GOPATH=$build/gopath
export GOMODCACHE=$build/gopath/pkg/mod
export GOTOOLCHAIN=local
export GOFLAGS=-buildvcs=false
export CGO_ENABLED=0

commit=unknown
if rev=$(git -C "$root" rev-parse --short=12 HEAD 2>/dev/null); then
	commit=$rev
fi

(cd "$root/pasobench" && go build -o "$build/pasobench" .)
exec "$build/pasobench" "$@" --commit "$commit"
