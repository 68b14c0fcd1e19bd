#!/usr/bin/env python3
"""Coefficient-consistency study: terminal bias of the filtered
regression coefficient versus sample size, averaged over replications.

Example:
    python3 scripts/sim1_consistency.py --replications 1000 --jobs 2
"""

import argparse

from scgarch.cli import job_count, positive_int, uint64
from scgarch.experiments import Sim1BiasConfig, run_sim1_bias


def build_parser():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", type=positive_int, nargs="+", default=Sim1BiasConfig.sizes)
    ap.add_argument("--replications", type=positive_int,
                    default=Sim1BiasConfig.replications)
    ap.add_argument("--base-seed", type=uint64, default=Sim1BiasConfig.base_seed)
    ap.add_argument("--q-true", type=float, default=Sim1BiasConfig.q_true)
    ap.add_argument("--meas-var", type=float, default=Sim1BiasConfig.meas_var)
    ap.add_argument("--jobs", type=job_count, default=1,
                    help="worker processes (1 to the CPU count)")
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        cfg = Sim1BiasConfig(
            sizes=tuple(args.sizes),
            replications=args.replications,
            base_seed=args.base_seed,
            q_true=args.q_true,
            meas_var=args.meas_var,
        )
    except ValueError as exc:
        ap.error(str(exc))
    biases = run_sim1_bias(cfg, jobs=args.jobs)
    print(f"{'n':>8s} {'mean bias':>14s}   ({args.replications} replications)")
    for n, b in biases.items():
        print(f"{n:8d} {b:14.7f}")


if __name__ == "__main__":
    main()
