#!/usr/bin/env bash
# The one command of the system benchmark.
#
#   benchmark/run.sh                      all four workloads, untraced then traced
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                         one run; the last line of stdout is its JSON result
#   benchmark/run.sh --smoke              all four, a few seconds each, checks still on
#   benchmark/run.sh --check-repeat       two sets of runs of the same code, compared
#                                         metric by metric against BENCHMARK.json's bounds
#
# Options: --seed N (any u64, default 20180423), --seconds S (default
# BENCHMARK.json's run_seconds), --runs N (runs per set of --check-repeat,
# medians compared; default 3). Builds --release first, every time.
# Results land in benchmark/results/. Run it from the repository root.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
manifest="$here/Cargo.toml"
out="$here/results"
workloads=(spend spend-durable kv-mixed overload)

workload="" seed=20180423 seconds="" trace="" mode=all runs=3
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --trace) trace="$2"; shift 2 ;;
    --runs) runs="$2"; shift 2 ;;
    --smoke) mode=smoke; shift ;;
    --check-repeat) mode=repeat; shift ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done
if [ -z "$seconds" ]; then
  seconds="$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' "$here/../BENCHMARK.json" 2>/dev/null | head -1)"
  seconds="${seconds:-16}"
fi

# Cargo reports on stderr; stdout stays the benchmark's own. The target
# directory is CARGO_TARGET_DIR if the caller set it (relative to the
# current directory, as cargo reads it), else benchmark/target.
cargo build --release --offline --manifest-path "$manifest" >&2
bin="${CARGO_TARGET_DIR:-$here/target}/release/fabric-benchmark"
BENCH_GIT_REV="$(git -C "$here" rev-parse HEAD 2>/dev/null || echo unknown)"
export BENCH_GIT_REV

one() { # workload trace [extra args]
  local w="$1" t="$2"; shift 2
  "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$t" --out "$out" "$@"
}

case "$mode" in
  all)
    if [ -n "$workload" ]; then
      one "$workload" "${trace:-0}"
    else
      for t in ${trace:-0 1}; do
        for w in "${workloads[@]}"; do one "$w" "$t"; done
      done
    fi
    ;;
  smoke)
    seconds=2
    for w in ${workload:-"${workloads[@]}"}; do one "$w" "${trace:-0}" --smoke; done
    ;;
  repeat)
    for set in A B; do
      for w in ${workload:-"${workloads[@]}"}; do
        for run in $(seq 1 "$runs"); do
          "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 \
            --out "$out/repeat-$set-$run" >/dev/null
        done
      done
    done
    python3 - "$here/../BENCHMARK.json" "$out" "$runs" ${workload:-"${workloads[@]}"} <<'PY'
import json, statistics, sys
spec_path, out, runs, *workloads = sys.argv[1:]
spec = json.load(open(spec_path))
failed = False
for w in workloads:
    def median(set_name, metric):
        values = [json.load(open(f"{out}/repeat-{set_name}-{r}/{w}.json"))["end_to_end"][metric]["value"]
                  for r in range(1, int(runs) + 1)]
        return statistics.median(values)
    for m in spec["end_to_end"]:
        a, b = median("A", m["name"]), median("B", m["name"])
        worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
        ok = abs(worse) <= m["bound"]
        failed |= not ok
        print(f"{w:14} {m['name']:14} A {a:12.4f}  B {b:12.4f} {m['unit']:5} "
              f"B worse by {100 * worse:+6.2f}%  bound {100 * m['bound']:.0f}%  {'ok' if ok else 'DISAGREE'}")
sys.exit(1 if failed else 0)
PY
    ;;
esac
