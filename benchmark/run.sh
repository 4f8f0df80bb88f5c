#!/usr/bin/env bash
# Launcher named by /BENCHMARK.json. Builds the harness from source into
# .bench_build/ (keeping the Go build cache, GOPATH and Go's config
# directory inside the checkout, so nothing is written outside it) and
# runs it from the checkout root with the driver's arguments.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" TMPDIR="$build/tmp"
export GOFLAGS= GOTOOLCHAIN=local GOWORK=off
go build -C benchmark -o "$build/pbench" .
exec "$build/pbench" "$@"
