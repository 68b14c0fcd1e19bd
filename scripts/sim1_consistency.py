#!/usr/bin/env python3
"""Coefficient-consistency study: terminal bias of the filtered
regression coefficient versus sample size, averaged over replications.

Example:
    python3 scripts/sim1_consistency.py --replications 1000 --jobs 2
"""

import argparse

from scgarch.cli import job_count, positive_int, uint64
from scgarch.experiments import SIM1_BASE_SEED, Sim1BiasConfig, run_sim1_bias


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", type=positive_int, nargs="+", default=[100, 500, 1000])
    ap.add_argument("--replications", type=positive_int, default=200)
    ap.add_argument("--base-seed", type=uint64, default=SIM1_BASE_SEED)
    ap.add_argument("--q-true", type=float, default=0.01)
    ap.add_argument("--meas-var", type=float, default=1.0)
    ap.add_argument("--jobs", type=job_count, default=1,
                    help="worker processes (1 to the CPU count)")
    args = ap.parse_args(argv)

    cfg = Sim1BiasConfig(
        sizes=tuple(args.sizes),
        replications=args.replications,
        base_seed=args.base_seed,
        q_true=args.q_true,
        meas_var=args.meas_var,
    )
    biases = run_sim1_bias(cfg, jobs=args.jobs)
    print(f"{'n':>8s} {'mean bias':>14s}   ({args.replications} replications)")
    for n, b in biases.items():
        print(f"{n:8d} {b:14.7f}")


if __name__ == "__main__":
    main()
