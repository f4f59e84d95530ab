#!/usr/bin/env bash
# Smoke test: every bench_e2e workload once, with 2 s windows (one catchup
# repetition) and every correctness check on. Fails on the first workload
# whose outputs are wrong.
#
#   bash bench/e2e/smoke.sh path/to/bench_e2e
set -euo pipefail

bin="$1"
for workload in catchup stream history churn; do
  "$bin" --workload "$workload" --seed 1 --seconds 2 --trace 0 | tail -n 1
done
