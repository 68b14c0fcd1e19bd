#!/usr/bin/env python3
"""Input generation and output checks, in a process of their own.

``run.py`` starts this process once per run.  It generates the workload's
pool of panels, writes them as CSV and keeps their true covariance paths;
then, for each op, it checks the files the op wrote and, when asked,
scores the fit against the truth.  Holding the truth and running the
checks here keeps their memory out of the benchmark process, whose peak
RSS growth is reported as the program's.

One JSON object per line: on start the process writes
``{"panels": [csv paths], "warmup": csv path}``; then it answers each
request ``{"panel": k, "out": dir, "score": bool}`` with
``{"error": str or null, "quality": dict or null}`` until its input closes.

    python3 perfbench/checker.py <workload> <seed> <work dir>
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from run import SRC, WARMUP_ROWS, WORKLOADS

sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import generate  # noqa: E402
import outputs  # noqa: E402


def write_panel_csv(path: Path, values: np.ndarray) -> None:
    header = ",".join(f"y{j + 1}" for j in range(values.shape[1]))
    np.savetxt(path, values, fmt="%.17g", delimiter=",", header=header, comments="")


def check(out: Path, n: int, p: int, values, truth, score: bool) -> dict:
    try:
        sigmas, loglik = outputs.check_fit_outputs(out, n, p)
        quality = outputs.fit_quality(out, sigmas, loglik, values, truth) if score else None
    except outputs.OutputError as exc:
        return {"error": str(exc), "quality": None}
    return {"error": None, "quality": quality}


def main() -> int:
    workload, seed, work = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    wl = WORKLOADS[workload]
    panels = []
    for k, s in enumerate(wl.pool_seeds(seed)):
        if wl.generator == "sim2":
            values, truth = generate.sim2_panel(wl.n, s)
        else:
            values, truth = generate.garch_panel(wl.n, wl.p, s)
        path = work / f"panel_{k}.csv"
        write_panel_csv(path, values)
        panels.append((path, values, truth))
    warmup = work / "warmup.csv"
    write_panel_csv(warmup, panels[0][1][:WARMUP_ROWS])
    print(json.dumps({"panels": [str(p) for p, _, _ in panels], "warmup": str(warmup)}),
          flush=True)

    for line in sys.stdin:
        request = json.loads(line)
        _, values, truth = panels[request["panel"]]
        reply = check(Path(request["out"]), wl.n, wl.p, values, truth, request["score"])
        print(json.dumps(reply), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
