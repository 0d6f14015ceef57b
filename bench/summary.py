"""Reference figures: two sets of untraced runs and one traced run per workload.

    python3 bench/summary.py

Runs ``run.py`` for SECONDS once per workload and seed in SEEDS, each in a
fresh process; then the whole set again; then once more per workload with
--trace 1 on the first seed.  Prints, per workload and set, the median and quartiles of
every end-to-end metric with the quartile spread as a share of the median,
and the change of each median from the first set to the second; then the
share of failed operations, the per-layer metrics and the line count of
src/.  Writes the same to bench/results/summary.json.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import subprocess
import sys

from run import HERE, RESULTS, SRC, WORKLOADS

SEEDS = range(1, 11)
SECONDS = 30  # run_seconds in BENCHMARK.json


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, timeout=600, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def src_lines() -> int:
    total = 0
    for path in glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True):
        with open(path, encoding="utf-8") as fh:
            total += sum(1 for _ in fh)
    return total


def main() -> int:
    summary = {"src_lines": src_lines(), "seeds": list(SEEDS), "seconds": SECONDS}
    print(f"src/ lines: {summary['src_lines']}")
    sets = [{w: [run(w, seed, SECONDS, 0) for seed in SEEDS] for w in WORKLOADS}
            for _ in range(2)]
    for workload in WORKLOADS:
        entry = {"sets": []}
        for i, runs in enumerate(s[workload] for s in sets):
            shares = sorted({r["failed"] / r["attempted"] for r in runs})
            attempted = [r["attempted"] for r in runs]
            stats = {"correct": all(r["correct"] for r in runs), "failed_shares": shares,
                     "attempted": attempted, "end_to_end": {}}
            print(f"\n{workload}, set {i + 1}: {len(runs)} runs, correct={stats['correct']}, "
                  f"failed shares {shares}, attempted {min(attempted)}-{max(attempted)}")
            print(f"  {'metric':14s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s}")
            for name, first in runs[0]["metrics"].items():
                values = [r["metrics"][name]["value"] for r in runs]
                q1, median, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / median
                stats["end_to_end"][name] = {"unit": first["unit"], "median": median, "q1": q1,
                                             "q3": q3, "spread": spread, "values": values}
                print(f"  {name:14s} {median:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.2%} "
                      f"{first['unit']}")
            entry["sets"].append(stats)
        first, second = (stats["end_to_end"] for stats in entry["sets"])
        entry["median_change"] = {
            name: second[name]["median"] / first[name]["median"] - 1 for name in first}
        print("  median change, set 1 to set 2: " + ", ".join(
            f"{name} {change:+.2%}" for name, change in entry["median_change"].items()))
        traced = run(workload, SEEDS[0], SECONDS, 1)
        entry["per_layer"] = traced["metrics"]
        print(f"  traced run, seed {SEEDS[0]}: correct={traced['correct']}, "
              f"attempted {traced['attempted']}")
        for name, metric in traced["metrics"].items():
            print(f"  {name:48s} {metric['value']:14.3f} {metric['unit']}")
        summary[workload] = entry
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
