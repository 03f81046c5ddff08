#!/usr/bin/env bash
# Builds the realm benchmark from this checkout's sources and runs it.
# Run from the repository root; arguments pass through to the binary:
#   bash perfbench/run.sh --workload login_storm --seed 1 --seconds 10 --trace 0
# The build cache and binary live in .bench_build/ at the root.
set -euo pipefail
root=$(pwd)
bench_dir=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
mkdir -p "$root/.bench_build/gotmp"
export GOCACHE="$root/.bench_build/gocache" GOTMPDIR="$root/.bench_build/gotmp" \
  GOMODCACHE="$root/.bench_build/gomod" GOENV=off GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$bench_dir" && go build -o "$root/.bench_build/perfbench" .) >&2
exec "$root/.bench_build/perfbench" "$@"
