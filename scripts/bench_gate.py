#!/usr/bin/env python3
"""Gate on the repository benchmark's outputs and work counters.

    python3 scripts/bench_gate.py

Runs every perfbench workload once, with its traced repetition, at the
recorded seed, and exits 1 when
- an output check fails or a seed-1 digest differs from
  perfbench/digests.json (the report's "correct" is false), or
- a work counter of the traced run differs from EXPECTED below.

Wall times are printed and never gate. A change that alters the work
on purpose records the new counter values here in the same diff.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMAND = [sys.executable, "perfbench/run.py", "--workload", "all",
           "--trace", "1", "--seconds", "5"]

# Deterministic work of each workload's traced job: a function of the
# code and the seed alone, so any difference is a change in what the
# simulators compute, not in how fast the host ran them.
EXPECTED = {
    "cycle-sweep.perf.cycle_sim.gemms": 128,
    "cycle-sweep.perf.cycle_sim.sim_cycles": 569958160,
    "analytic-dse.dse.adaptive.points_evaluated": 435156,
    "analytic-dse.dse.adaptive.waves": 714,
    "analytic-dse.coevo.best_responses": 94,
    "fleet-size.sim.fleet.probes": 10,
    "fleet-size.sim.replica.runs": 174,
    "fleet-size.sim.cluster.events": 19805142,
}


def main():
    proc = subprocess.run(COMMAND, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        print(f"bench_gate: run.py exited with {proc.returncode}")
        return 1
    # Everything but the last line, the JSON report read below.
    print("\n".join(lines[:-1]))
    report = json.loads(lines[-1])
    metrics = report["metrics"]

    failures = []
    if not report["correct"]:
        failures.append(f"{report['failed']} of {report['attempted']} "
                        "output checks and digests failed (see the "
                        "CHECK FAILED lines)")
    print(f"\n{'work counter':<44} {'expected':>12} {'measured':>12}")
    for name, want in EXPECTED.items():
        got = metrics.get(name, {}).get("value")
        print(f"{name:<44} {want:>12} {got!s:>12}")
        if got != want:
            failures.append(f"{name} is {got}, expected {want}")

    for msg in failures:
        print(f"bench_gate: FAILED: {msg}")
    if not failures:
        print(f"bench_gate: {report['attempted']} checks and digests "
              f"and {len(EXPECTED)} work counters match")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
