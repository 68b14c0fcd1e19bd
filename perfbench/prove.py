#!/usr/bin/env python3
"""Steadiness check and baseline record for the benchmark.

Runs ``run.py`` on every workload once for each of the seeds 1..10 with
tracing off, then once with tracing on, and prints for every end-to-end
metric the median of the runs and their spread: the distance between the
first and third quartiles (``statistics.quantiles(values, n=4)``) as a
share of the median, next to a third of the metric's bound from
``BENCHMARK.json``.  A spread above that third reads WIDE.

    python3 perfbench/prove.py
    python3 perfbench/prove.py --out perfbench/baseline.json

``--out`` writes every run's numbers, the traced per-layer metrics, the
machine and the thread-pinning environment to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib.metadata import version
from pathlib import Path

from run import ROOT, THREAD_ENV

SEEDS = range(1, 11)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One benchmark run; returns its result line and its detail line, with
    the run's wall time added to the detail as ``run_s``."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    lines = proc.stdout.strip().splitlines()
    detail = next(json.loads(l[len("detail "):]) for l in lines if l.startswith("detail "))
    detail["run_s"] = time.perf_counter() - start
    return json.loads(lines[-1]), detail


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine() -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    return {"commit": commit, "nproc": os.cpu_count(), "cpu_model": cpu_model(),
            "python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "thread_env": THREAD_ENV}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()

    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {"machine": machine(), "run_seconds": seconds, "workloads": {}}
    steady = True
    for workload in (w["name"] for w in spec["workloads"]):
        runs, reported, run_s = {}, {}, {}
        for seed in SEEDS:
            result, detail = run_once(workload, seed, seconds, 0)
            runs[seed] = {k: v["value"] for k, v in result["metrics"].items()}
            reported[seed] = detail["reported"]
            run_s[seed] = detail["run_s"]
            print(f"{workload} seed {seed} ({run_s[seed]:.0f} s): " + " ".join(
                f"{k}={v:.5g}" for k, v in runs[seed].items()), flush=True)
        summary = {}
        for name, bound in bounds.items():
            median, q1, q3, share = spread([r[name] for r in runs.values()])
            ok = share < bound / 3
            steady &= ok
            summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": share,
                             "bound": bound}
            print(f"  {name:<16} median {median:<12.6g} spread {share:8.4f}  "
                  f"bound/3 {bound / 3:.4f}  {'ok' if ok else 'WIDE'}", flush=True)
        result, detail = run_once(workload, SEEDS[0], seconds, 1)
        print(f"{workload} traced run: {detail['run_s']:.0f} s", flush=True)
        record["workloads"][workload] = {
            "runs": runs, "summary": summary, "reported": reported, "run_s": run_s,
            "traced_run_s": detail["run_s"],
            "per_layer": {k: v["value"] for k, v in result["metrics"].items()}}
    if args.out:
        args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print("steady" if steady else "not steady: some spread exceeds a third of its bound")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
