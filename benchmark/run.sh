#!/usr/bin/env bash
# Builds the benchmark (--release --offline) and runs the four workloads
# interleaved for k sets, each set on its own seed, then prints per
# workload and metric the value of every set, their median, and their
# spread (quartile distance over median, as the driver takes it) against
# the metric's bound -- so "two sets agree" is a command, not a procedure.
#
#   benchmark/run.sh [-k sets] [-s seconds] [-t]
#
#   -k  sets to run, set i on seed i (default 2; the driver's own check
#       uses 10)
#   -s  seconds one run measures (default: run_seconds of BENCHMARK.json)
#   -t  traced runs (per-layer metrics; they have no bound)
#
# Exits 1 when a spread is wider than its bound or a gate tripped.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
sets=2 seconds="" trace=0
while getopts "k:s:t" opt; do
  case "$opt" in
    k) sets="$OPTARG" ;;
    s) seconds="$OPTARG" ;;
    t) trace=1 ;;
    *) sed -n '2,15p' "$0" >&2; exit 2 ;;
  esac
done

cargo build --release --offline --manifest-path "$here/Cargo.toml"
bin="${CARGO_TARGET_DIR:-$here/target}/release/ron-benchmark"
mapfile -t workloads < <("$bin" --print-manifest |
  python3 -c 'import json, sys; print("\n".join(w["name"] for w in json.load(sys.stdin)["workloads"]))')

mkdir -p "$here/out"
lines="$here/out/sets-trace$trace.jsonl"
: > "$lines"
for ((i = 1; i <= sets; i++)); do
  for w in "${workloads[@]}"; do
    echo "set $i: $w (seed $i)" >&2
    result="$("$bin" --workload "$w" --seed "$i" --trace "$trace" \
      ${seconds:+--seconds "$seconds"} | tail -n 1)" || true
    echo "{\"workload\": \"$w\", \"set\": $i, \"result\": $result}" >> "$lines"
  done
done

"$bin" --print-manifest | python3 -c '
import json, statistics, sys

manifest = json.load(sys.stdin)
bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
runs = [json.loads(line) for line in open(sys.argv[1])]
bad = 0
for w in dict.fromkeys(r["workload"] for r in runs):
    mine = [r["result"] for r in runs if r["workload"] == w]
    tripped = sum(not r["correct"] for r in mine)
    bad += tripped
    failed = sum(r["failed"] for r in mine)
    print(f"\n== {w}: {len(mine)} sets, {tripped} tripped the gate, {failed} lookups failed")
    for name, first in mine[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in mine]
        median = statistics.median(values)
        unit = first["unit"]
        row = f"{name:<36} {unit:<6} " + " ".join(f"{v:>12.6g}" for v in values)
        if len(values) > 1 and median:
            q = statistics.quantiles(values, n=4)
            spread = (q[2] - q[0]) / abs(median)
            row += f"  median {median:.6g} spread {100 * spread:.2f} %"
            if name in bounds:
                ok = spread <= bounds[name]
                bad += not ok
                row += f" of {100 * bounds[name]:.0f} % " + ("ok" if ok else "WIDE")
        print(row)
sys.exit(1 if bad else 0)
' "$lines"
