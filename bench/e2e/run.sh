#!/usr/bin/env bash
# Builds bench_e2e from this checkout's sources into .bench_build/e2e (the
# first call compiles; later calls are incremental no-ops) and runs it with
# the given arguments from the checkout root. Build output goes to stderr,
# so the benchmark's last stdout line stays its JSON result.
#
#   bash bench/e2e/run.sh --workload stream --seed 1 --seconds 10 --trace 0
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/.bench_build/e2e"
jobs="$(nproc 2>/dev/null || echo 2)"

{
  cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release
  cmake --build "$build" -j "$jobs" --target bench_e2e
} >&2

mkdir -p "$build/traces"
cd "$root"
exec "$build/bench_e2e" --trace-dir "$build/traces" "$@"
