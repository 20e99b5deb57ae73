#!/usr/bin/env bash
# Builds the harness from source inside the checkout and runs it. Everything
# the toolchain and the run write (build cache, binary, tapes, stores, span
# files) stays under .bench_build/ at the checkout root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off
go build -C "$root/bench" -o "$build/lightbench" . >&2
exec "$build/lightbench" -workdir "$build" "$@"
