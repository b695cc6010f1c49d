#!/usr/bin/env bash
# Repeatability harness: runs every workload N times (N >= 5), each run
# with another seed as the driver does (SEEDS=fixed repeats one seed),
# writes per-metric min / median / max and spread to
# results/repeatability.json, and fails if the spread of any end-to-end
# metric - the distance between its quartiles as a share of its median -
# exceeds the metric's bound in BENCHMARK.json.
#
#   benchmark/repeat.sh N [first seed]      (SECONDS_PER_RUN, SEEDS, QUICK)
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
n="${1:?usage: repeat.sh N [first seed]}"
first="${2:-20170529}"
if [ "$n" -lt 5 ]; then
    echo "repeat.sh: N must be at least 5" >&2
    exit 2
fi

mkdir -p "$here/out"
runs="$here/out/repeat-runs.jsonl"
: > "$runs"
for workload in bfs pagerank triangles mcl; do
    for ((i = 0; i < n; i++)); do
        seed=$((first + i))
        if [ "${SEEDS:-vary}" = "fixed" ]; then seed="$first"; fi
        line="$("$here/run.sh" --workload "$workload" --seed "$seed" --trace 0 \
            ${SECONDS_PER_RUN:+--seconds "$SECONDS_PER_RUN"} ${QUICK:+--quick} | tail -n 1)"
        echo "{\"workload\": \"$workload\", \"seed\": $seed, \"result\": $line}" >> "$runs"
        echo "$workload seed $seed done" >&2
    done
done
python3 "$here/summarize.py" "$runs" "$here/../BENCHMARK.json" "$here/results/repeatability.json"
