#!/usr/bin/env bash
# Calibrates bench_e2e's regression bounds.
#
# For each workload it makes two interleaved sets of runs, A and B, over
# seeds 1..N, then one held-out set H over seeds N+1..2N. For every
# end-to-end metric it prints the median and quartiles of A, the spread
# (interquartile distance / median) of each set, and how far B's and H's
# medians lie from A's in the metric's worse direction — each against the
# metric's bound in BENCHMARK.json. A spread must stay under a third of its
# bound (setup_s excepted) and a set-to-set difference under the bound; a
# metric that fails is made steadier with more work per run, never by
# loosening its bound. With --traced it also runs one traced set over seeds
# 1..N and reports trace_overhead_pct per metric (traced median against A's).
#
#   bash bench/e2e/calibrate.sh [--runs 5] [--seconds 10] [--traced]
#                               [--workloads "stream churn"]
#
# Results (one JSON and one log per run) go to .bench_build/e2e/calibrate.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
runs=5
seconds=10
traced=0
workloads=""
while [ $# -gt 0 ]; do
  case "$1" in
    --runs) runs="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --traced) traced=1; shift ;;
    --workloads) workloads="$2"; shift 2 ;;
    *) echo "usage: calibrate.sh [--runs N] [--seconds S] [--traced] [--workloads \"a b\"]" >&2
       exit 2 ;;
  esac
done
if [ -z "$workloads" ]; then
  workloads="$(python3 -c 'import json, sys
print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' \
    "$root/BENCHMARK.json")"
fi

out="$root/.bench_build/e2e/calibrate"
rm -rf "$out"
mkdir -p "$out"

run() {  # set workload seed trace
  local name="$out/$1-$2-$3"
  if ! bash "$here/run.sh" --workload "$2" --seed "$3" --seconds "$seconds" --trace "$4" \
      --json "$name.json" > "$name.log" 2>&1; then
    echo "run $1 $2 seed $3 exited non-zero (see $name.log)" >&2
  fi
}

for w in $workloads; do
  echo "== $w" >&2
  for ((i = 1; i <= runs; i++)); do
    run A "$w" "$i" 0
    run B "$w" "$i" 0
  done
  for ((i = runs + 1; i <= 2 * runs; i++)); do run H "$w" "$i" 0; done
  if [ "$traced" = 1 ]; then
    for ((i = 1; i <= runs; i++)); do run T "$w" "$i" 1; done
  fi
done

python3 - "$out" "$root/BENCHMARK.json" "$workloads" <<'PY'
import glob, json, os, statistics, sys

out, bench_path, workloads = sys.argv[1], sys.argv[2], sys.argv[3].split()
bench = json.load(open(bench_path))
metrics = bench["end_to_end"]

def load(set_name, workload):
    docs = []
    for path in sorted(glob.glob(os.path.join(out, f"{set_name}-{workload}-*.json"))):
        docs.append(json.load(open(path)))
    return docs

def values(docs, metric):
    return [d["end_to_end"][metric]["value"] for d in docs if metric in d["end_to_end"]]

def spread(vals):
    if len(vals) < 2:
        return float("nan")
    q1, med, q3 = statistics.quantiles(vals, n=4)
    return (q3 - q1) / med if med else float("inf")

def worse(base, other, better):
    if not base:
        return float("inf")
    change = (other - base) / base
    return change if better == "lower" else -change

problems = 0
for w in workloads:
    sets = {s: load(s, w) for s in ("A", "B", "H", "T")}
    failed = sum(d["failed"] for docs in sets.values() for d in docs)
    invalid = sum(d["provenance"].get("generator_limited", False)
                  for docs in sets.values() for d in docs)
    print(f"\n{w}: runs A={len(sets['A'])} B={len(sets['B'])} H={len(sets['H'])} "
          f"T={len(sets['T'])}  failed={failed}  generator_limited={invalid}")
    print(f"{'metric':20} {'bound':>6} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'sprA':>6} {'sprB':>6} {'sprH':>6} {'A→B':>7} {'A→H':>7} {'trace%':>7}  verdict")
    problems += failed
    for m in metrics:
        name, bound = m["name"], m["bound"]
        a, b, h = (values(sets[s], name) for s in ("A", "B", "H"))
        if not a:
            continue
        q1, med, q3 = statistics.quantiles(a, n=4) if len(a) > 1 else (a[0],) * 3
        spreads = [spread(v) for v in (a, b, h)]
        diff_b = worse(statistics.median(a), statistics.median(b), m["better"]) if b else float("nan")
        diff_h = worse(statistics.median(a), statistics.median(h), m["better"]) if h else float("nan")
        t = values(sets["T"], name)
        overhead = ((statistics.median(t) - med) / med * 100) if t and med else float("nan")
        ok = all(s <= bound / 3 for s in spreads if s == s) or name == "setup_s"
        ok = ok and all(d < bound for d in (diff_b, diff_h) if d == d)
        problems += not ok
        print(f"{name:20} {bound:6.2f} {med:12.4g} {q1:12.4g} {q3:12.4g} "
              + " ".join(f"{s:6.3f}" for s in spreads)
              + f" {diff_b:7.3f} {diff_h:7.3f} {overhead:7.1f}  {'ok' if ok else 'CHECK'}")
sys.exit(1 if problems else 0)
PY
