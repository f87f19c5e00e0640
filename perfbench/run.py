#!/usr/bin/env python3
"""The repository benchmark: builds perfbench_driver and runs workloads.

    python3 perfbench/run.py --workload <name|all> [--seed N]
                             [--seconds S] [--trace 0|1]

Run from the repository root. Each workload runs in its own driver
process with a thread count fixed below. With --trace 0 the last line
of stdout is a JSON object with the end-to-end metrics of BENCHMARK.json
(job_s, setup_s, peak_rss_mb); with --trace 1 it carries the per-layer
metrics, measured by a traced repetition. README.md in this directory
defines every metric.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
DRIVER = BUILD / "perfbench_driver"

# Worker threads of every workload, fixed here: never taken from the
# host's concurrency or an inherited ACS_THREADS. A second thread made
# cycle-sweep's peak RSS depend on which large simulations overlapped
# (25-43 MiB across seeds, 23-24 MiB at one thread) and its job_s
# noisier (README.md, "Steadiness").
THREADS = 1

# A driver process that runs longer than this is killed and the run
# fails (one run must end within 180 s).
DRIVER_TIMEOUT_S = 170.0

# Per-layer metrics that are self times of the traced job: a layer
# span's time minus that of the layer spans inside it. (The cluster
# replay's sim.cluster.self_s is not one: it runs after the job.)
SELF_TIMES = ("perf.cycle_sim.s", "dse.evaluate.self_s",
              "dse.adaptive.self_s", "coevo.self_s", "sim.replica.self_s",
              "sim.fleet.rollup_s")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configure once, then build incrementally (output to stderr)."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no acs sources at {ROOT / 'src'}; run from a checkout")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    # Keep the compiler's temporary files inside the checkout too.
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def run_driver(workload, seed, seconds, trace):
    """One driver process; returns (report dict, rusage, trace path)."""
    out = BUILD / "out"
    out.mkdir(parents=True, exist_ok=True)
    report = out / f"{workload}.trace{trace}.json"
    report.unlink(missing_ok=True)
    trace_file = out / f"{workload}.trace.json"
    cmd = [str(DRIVER), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--threads", str(THREADS),
           "--trace", str(trace), "--report", str(report)]
    if trace:
        cmd += ["--trace-file", str(trace_file)]
    env = dict(os.environ)
    env.pop("ACS_TRACE", None)
    proc = subprocess.Popen(cmd, stdout=sys.stderr, env=env)
    deadline = time.monotonic() + DRIVER_TIMEOUT_S
    while True:
        pid, status, rusage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            os.wait4(proc.pid, 0)
            fail(f"driver exceeded {DRIVER_TIMEOUT_S:.0f} s: {cmd[1:]}")
        time.sleep(0.02)
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        fail(f"driver exited with {code}: {cmd[1:]}")
    with open(report) as f:
        return json.load(f), rusage, trace_file


def per_layer_metrics(rep, rusage, names):
    """Every per-layer metric of BENCHMARK.json, 0 where not measured.

    The driver reports the metrics of the workload's own layers; the
    host metrics come from the traced run's process and repetitions.
    """
    values = {n: rep["stats"].get(n, 0.0) for n in names}
    untraced = [r["job_s"] for r in rep["reps"] if not r["traced"]]
    traced = [r["job_s"] for r in rep["reps"] if r["traced"]]
    cpu = rusage.ru_utime + rusage.ru_stime
    # The profiled repetition is the last, traced one.
    job_s = rep["reps"][-1]["job_s"]
    values["host.sys_cpu_frac"] = rusage.ru_stime / cpu if cpu else 0.0
    values["trace_overhead_frac"] = (
        statistics.median(traced) / statistics.median(untraced) - 1.0)
    values["layers.job_share"] = sum(values[k] for k in SELF_TIMES) / job_s
    return values, job_s


def print_self_times(workload, values, job_s):
    print(f"\n{workload}: layer self times in the traced job "
          f"(job_s {job_s:.3f} s)")
    print(f"  {'metric':<22} {'self_s':>9} {'share of job':>12}")
    for k in SELF_TIMES:
        if values[k]:
            print(f"  {k:<22} {values[k]:9.4f} {values[k] / job_s:12.3f}")
    print(f"  {'sum (layers.job_share)':<22} "
          f"{values['layers.job_share'] * job_s:9.4f} "
          f"{values['layers.job_share']:12.3f}")


def run_workload(workload, seed, seconds, trace, spec, digests):
    rep, rusage, trace_file = run_driver(workload, seed, seconds, trace)
    failures = list(rep["checks"]["failures"])
    attempted = rep["checks"]["attempted"]
    if seed == digests["seed"]:
        found = {workload: rep["digest"]}
        if "profile_digest" in rep:
            found[workload + "/profile"] = rep["profile_digest"]
        for key, value in found.items():
            attempted += 1
            if value != digests["digests"][key]:
                failures.append(f"{key}: digest {value} differs from the "
                                f"recorded seed-{seed} digest")
    for msg in failures:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)

    if trace:
        names = [m["name"] for m in spec["per_layer"]]
        unknown = set(rep["stats"]) - set(names)
        if unknown:
            fail(f"driver reported metrics not in BENCHMARK.json: "
                 f"{sorted(unknown)}")
        values, job_s = per_layer_metrics(rep, rusage, names)
        print_self_times(workload, values, job_s)
        print(f"  Chrome trace: {trace_file}")
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        values = {
            "job_s": statistics.median(r["job_s"] for r in rep["reps"]),
            "setup_s": rep["setup_s"],
            "peak_rss_mb": statistics.median(
                r["peak_rss_mb"] for r in rep["reps"]),
        }
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    print(f"\n{workload} (seed {seed}, {THREADS} thread(s), "
          f"{len(rep['reps'])} repetition(s), "
          f"{rep['setup_samples']} timed set-ups, checks "
          f"{attempted - len(failures)}/{attempted} passed)")
    for k, v in metrics.items():
        print(f"  {k:<36} {v['value']:.6g} {v['unit']}")
    return metrics, attempted, len(failures)


def main():
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=names + ["all"])
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    with open(HERE / "digests.json") as f:
        digests = json.load(f)
    seed = digests["seed"] if args.seed is None else args.seed

    build()
    workloads = names if args.workload == "all" else [args.workload]
    metrics, attempted, failed = {}, 0, 0
    for w in workloads:
        m, a, f = run_workload(w, seed, args.seconds, args.trace, spec,
                               digests)
        prefix = "" if len(workloads) == 1 else w + "."
        metrics.update({prefix + k: v for k, v in m.items()})
        attempted += a
        failed += f
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
