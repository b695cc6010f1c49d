#!/usr/bin/env python3
"""Summarise repeated benchmark runs; exit 1 if a spread exceeds its bound.

usage: summarize.py RUNS.jsonl BENCHMARK.json OUT.json

RUNS.jsonl holds one {"workload", "seed", "result"} object per run, where
"result" is the result line benchmark/run.sh printed. The spread of a
metric is the distance between the first and third quartile of its values
(statistics.quantiles(values, n=4)) as a share of their median - the
quantity the driver holds against the metric's bound.
"""
import json
import statistics
import sys


def summarise(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {
        "n": len(values),
        "min": min(values),
        "median": med,
        "max": max(values),
        "spread_iqr": (q3 - q1) / med,
        "spread_range": (max(values) - min(values)) / med,
    }


def main(runs_path, benchmark_path, out_path):
    with open(benchmark_path) as f:
        bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
    by_workload = {}
    failed_runs = []
    with open(runs_path) as f:
        for line in f:
            run = json.loads(line)
            result = run["result"]
            if not result["correct"] or result["failed"]:
                failed_runs.append({"workload": run["workload"], "seed": run["seed"]})
            metrics = by_workload.setdefault(run["workload"], {})
            for name, m in result["metrics"].items():
                metrics.setdefault(name, []).append(m["value"])
    report = {"workloads": {}, "failed_runs": failed_runs, "over_bound": []}
    for workload, metrics in by_workload.items():
        rows = {}
        for name, values in metrics.items():
            row = summarise(values)
            row["bound"] = bounds[name]
            # setup_s is held to its bound between medians only, as the
            # driver does; every other spread must stay within the bound.
            if name != "setup_s" and row["spread_iqr"] > row["bound"]:
                report["over_bound"].append(f"{workload}.{name}")
            rows[name] = row
        report["workloads"][workload] = rows
    report["claim"] = None
    with open(out_path, "w") as f:
        json.dump(report, f, indent=2)
        f.write("\n")
    for workload, rows in report["workloads"].items():
        for name, row in rows.items():
            print(f"{workload:<10} {name:<18} median {row['median']:<12.6g} "
                  f"spread {row['spread_iqr']:.4f} (bound {row['bound']})")
    if failed_runs or report["over_bound"]:
        print(f"FAILED: runs {failed_runs}, over bound {report['over_bound']}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 4:
        sys.exit(__doc__)
    sys.exit(main(*sys.argv[1:]))
