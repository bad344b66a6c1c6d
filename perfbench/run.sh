#!/usr/bin/env bash
# Builds the repository benchmark from source and runs it.
#
#   bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 50 --trace 0
#
# Run it from the repository root. Everything the Go toolchain writes
# (build cache, module cache, telemetry, the binary) lands under
# $CARGO_TARGET_DIR, default .bench_build, so a run touches nothing
# outside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build"
build="$(cd "$build" && pwd)"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export HOME="$build/home" XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
# Telemetry off, so the go command starts no helper process of its own.
go telemetry off
go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" -out "$build" "$@"
