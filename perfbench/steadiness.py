#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics over seeds.

    python3 perfbench/steadiness.py [--workload W ...] [--seeds 1-10]

Runs perfbench/run.py --trace 0 once per (seed, workload), one run at
a time, seed-major: every seed runs each workload in turn, so a slow
stretch of the host falls on all workloads alike. Prints for each
workload and metric the median of its runs and the distance between
their first and third quartiles (statistics.quantiles, n=4) as a
share of the median: the spread the benchmark's bounds are checked
against. Run from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", nargs="*", default=names, choices=names)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs = {w: [] for w in args.workload}
    for seed in args.seeds:
        for w in args.workload:
            out = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"),
                 "--workload", w, "--seed", str(seed), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            if out.returncode != 0:
                sys.exit(f"{w} seed {seed} failed:\n{out.stderr}")
            result = json.loads(out.stdout.splitlines()[-1])
            if not result["correct"]:
                sys.exit(f"{w} seed {seed}: {result['failed']} check(s) "
                         f"failed:\n{out.stderr}")
            runs[w].append(result["metrics"])
            print(f"  {w} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                file=sys.stderr)

    print("| workload | metric | median | IQR / median | bound | runs |")
    print("|---|---|---|---|---|---|")
    for w, metrics in runs.items():
        for metric, bound in bounds.items():
            vals = [m[metric]["value"] for m in metrics]
            med = statistics.median(vals)
            q = statistics.quantiles(vals, n=4)
            print(f"| {w} | {metric} | {med:.6g} "
                  f"{metrics[0][metric]['unit']} | {(q[2] - q[0]) / med:.3f} "
                  f"| {bound} | {len(vals)} |")


if __name__ == "__main__":
    main()
