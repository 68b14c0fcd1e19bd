"""Command-line interface: simulate, fit, evaluate, select-block, benchmark.

Every command writes its full effective configuration (defaults, seeds
and all) to ``config.echo`` in the output directory, so a run can be
reproduced from its artifacts alone.  Options can also be supplied in a
key=value config file via ``--config``; explicit flags win over the
file, which wins over built-in defaults.  A command makes its output
directory only once it has its results: a rejected run leaves none.

Exit codes: 0 success, 2 input or parse error, 3 numerical failure,
4 benchmark with every replication failed.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from . import io
from .evaluation import (
    DEFAULT_STABILIZATION_FRACTION,
    SCALES,
    loss_paths,
    moving_block_proxy,
    select_block_size,
)
from .exceptions import (
    DimensionMismatch,
    InvalidBlockSize,
    PanelFormatError,
    ScgarchError,
    TooManyPermutations,
)
from .experiments import BenchmarkConfig, run_benchmark
from .model import (
    DEFAULT_EXHAUSTIVE_LIMIT,
    DEFAULT_ORDERING_SAMPLES,
    DEFAULT_TUNE_GRID,
    CovariancePath,
    ScgarchConfig,
    bic,
    fit_model,
    order_by_bic,
)
from .simulate import Sim1Config, Sim2Config, generate_sim1, generate_sim2

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3
EXIT_BENCHMARK_FAILED = 4


class ConfigFileError(Exception):
    pass


class _Subcommand(argparse.ArgumentParser):
    """A subcommand parser that records its options, for ``--config``."""

    def __init__(self, *args, **kwargs):
        self.options = {}
        super().__init__(*args, **kwargs)

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        if action.option_strings and action.dest not in ("help", "config"):
            self.options[action.dest] = action
        return action


def uint64(value) -> int:
    seed = int(value)
    if not 0 <= seed < 2**64:
        raise argparse.ArgumentTypeError("seed must be a 64-bit unsigned integer")
    return seed


def positive_int(value) -> int:
    number = int(value)
    if number < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {number}")
    return number


def job_count(value) -> int:
    jobs = int(value)
    limit = os.cpu_count() or 1
    if not 1 <= jobs <= limit:
        raise argparse.ArgumentTypeError(f"jobs must be between 1 and {limit}")
    return jobs


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _echo(args, out: Path):
    mapping = {k: v for k, v in vars(args).items() if k not in ("func", "command")}
    io.write_config_echo(out / "config.echo", mapping)


def _fit_config(args) -> ScgarchConfig:
    return ScgarchConfig(
        kappa=args.kalman_kappa,
        state_noise=DEFAULT_TUNE_GRID if args.tune_state_noise else (args.kalman_q,),
        two_pass=args.two_pass,
    )


def cmd_simulate(args) -> int:
    if args.kind == "sim2":
        data = generate_sim2(Sim2Config(n=args.n, deltas=tuple(args.deltas),
                                        diag=tuple(args.diag), seed=args.seed))
        out = _out_dir(args)
        io.write_panel(out / "panel.csv", data.panel)
        io.write_cov_path(out / "truth_cov.csv", data.truth)
        print(f"wrote panel.csv ({data.panel.n} x {data.panel.p}) and truth_cov.csv"
              f" (PD repairs: {data.repairs})")
    else:
        data = generate_sim1(Sim1Config(n=args.n, q_true=args.q_true,
                                        meas_var=args.meas_var, seed=args.seed))
        out = _out_dir(args)
        io.write_columns(out / "panel.csv", ["y", "x", "phi_true"],
                         np.column_stack([data.y, data.x, data.phi_true]))
        print(f"wrote panel.csv ({args.n} rows: y, x, phi_true)")
    _echo(args, out)
    return EXIT_OK


def cmd_fit(args) -> int:
    panel = io.read_panel(args.panel)
    config = _fit_config(args)
    if args.ordering == "fixed":
        result = fit_model(panel, args.model, config)
    else:
        mode = "exhaustive" if args.ordering == "bic-exhaustive" else "sampled"
        result = order_by_bic(panel, config, model=args.model, mode=mode,
                              exhaustive_limit=args.bic_limit,
                              n_samples=args.bic_samples, seed=args.seed)

    out = _out_dir(args)
    io.write_cov_path(out / "cov_path.csv", result.cov_path)
    io.write_cov_path(out / "corr_path.csv",
                      CovariancePath(result.cov_path.correlations()))
    io.write_coeff_path(out / "coeff_path.csv", result.cholesky.t_path)
    processing_labels = [panel.labels[k] for k in result.ordering]
    io.write_garch_params(out / "garch_params.csv", result.garch_fits,
                          processing_labels)
    with open(out / "ordering.txt", "w") as fh:
        fh.write(" ".join(str(k + 1) for k in result.ordering) + "\n")
        fh.write(",".join(processing_labels) + "\n")
    score = bic(result.total_loglik, panel.n, panel.p)
    with open(out / "summary.txt", "w") as fh:
        fh.write(f"model={result.model}\n")
        fh.write(f"n={panel.n}\np={panel.p}\n")
        fh.write(f"ordering={' '.join(str(k + 1) for k in result.ordering)}\n")
        fh.write(f"total_loglik={io.fmt(result.total_loglik)}\n")
        fh.write(f"bic={io.fmt(score)}\n")
    _echo(args, out)
    print(f"{result.model}: total_loglik={result.total_loglik:.6g} bic={score:.6g} "
          f"ordering={tuple(k + 1 for k in result.ordering)}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    if bool(args.truth) == bool(args.moving_block):
        raise ConfigFileError("exactly one of --truth or --moving-block is required")
    estimate = io.read_cov_path(args.estimate)
    if args.truth:
        truth = io.read_cov_path(args.truth)
        source = f"file:{args.truth}"
    else:
        if not args.panel or args.block_size is None:
            raise ConfigFileError("--moving-block requires --panel and --block-size")
        truth = moving_block_proxy(io.read_panel(args.panel), args.block_size)
        source = f"moving-block(q={args.block_size})"
    report = loss_paths(estimate, truth, args.scale)
    out = _out_dir(args)
    io.write_eval_report(out / "eval.csv", report,
                         comment=f"truth: {source}; scale: {args.scale}")
    _echo(args, out)
    print(f"MAE {report.mae:.10g}")
    print(f"MSE {report.mse:.10g}")
    return EXIT_OK


def cmd_select_block(args) -> int:
    panel = io.read_panel(args.panel)
    selection = select_block_size(panel, args.candidates, args.threshold)
    out = _out_dir(args)
    io.write_block_table(out / "block_selection.csv", selection)
    _echo(args, out)
    if not selection.stable:
        print("warning: no candidate stabilized both losses; "
              "returning the largest", file=sys.stderr)
    print(f"selected q={selection.q_star} (stable={selection.stable})")
    return EXIT_OK


def cmd_benchmark(args) -> int:
    fit_cfg = ScgarchConfig(
        kappa=args.kalman_kappa,
        state_noise=DEFAULT_TUNE_GRID if args.kalman_q is None else (args.kalman_q,),
    )
    result = run_benchmark(
        BenchmarkConfig(replications=args.replications, n=args.n,
                        seed=args.seed, fit=fit_cfg),
        jobs=args.jobs,
    )
    out = _out_dir(args)
    io.write_benchmark_table(out / "benchmark.csv", result)
    io.write_benchmark_failures(out / "failures.csv", result)
    _echo(args, out)
    print(f"{'model':>8s} {'scale':>12s} {'MAE':>12s} {'MSE':>12s} {'reps':>5s}")
    for row in result.rows:
        print(f"{row.model:>8s} {row.scale:>12s} {row.mae:12.6g} {row.mse:12.6g} "
              f"{row.replications:5d}")
    if result.failures:
        print(f"{len(result.failures)} replication failures recorded in failures.csv",
              file=sys.stderr)
    return EXIT_BENCHMARK_FAILED if result.all_failed else EXIT_OK


def _add_common(sub):
    sub.add_argument("--out-dir", default=".", help="directory for output files")
    sub.add_argument("--config", default=None,
                     help="key=value file supplying defaults for this command")


def _add_fit_options(sub):
    sub.add_argument("--kalman-q", type=float, default=1e-4,
                     help="coefficient random-walk noise scale (ignored with "
                          "--tune-state-noise)")
    sub.add_argument("--kalman-kappa", type=float, default=10.0,
                     help="prior covariance scale for the coefficients")
    sub.add_argument("--tune-state-noise", action="store_true",
                     help="pick the walk noise per regression by predictive "
                          "likelihood over a log grid")
    sub.add_argument("--two-pass", action="store_true",
                     help="re-filter coefficients using fitted variances")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="scgarch",
        description="Time-varying covariance estimation with Cholesky-"
                    "parameterized regressions and GARCH variances",
    )
    subparsers = parser.add_subparsers(dest="command", required=True,
                                       parser_class=_Subcommand)

    sim = subparsers.add_parser("simulate", help="generate synthetic data")
    sim.add_argument("kind", choices=["sim1", "sim2"])
    sim.add_argument("--n", type=int, default=1024)
    sim.add_argument("--seed", type=uint64, default=0)
    sim.add_argument("--q-true", type=float, default=0.01,
                     help="sim1 coefficient walk variance")
    sim.add_argument("--meas-var", type=float, default=1.0,
                     help="sim1 measurement noise variance")
    sim.add_argument("--deltas", type=float, nargs=3, default=[128.0, 256.0, 64.0],
                     help="sim2 sine time scales for pairs (2,1), (3,1), (3,2)")
    sim.add_argument("--diag", type=float, nargs=3, default=[2.0, 3.0, 4.0],
                     help="sim2 variances")
    _add_common(sim)
    sim.set_defaults(func=cmd_simulate)

    fit = subparsers.add_parser("fit", help="fit a covariance-path model to a panel")
    fit.add_argument("panel", help="panel CSV (header labels, one row per step)")
    fit.add_argument("--model", choices=["scgarch", "cgarch"], default="scgarch")
    fit.add_argument("--ordering", choices=["fixed", "bic-exhaustive", "bic-sampled"],
                     default="fixed")
    fit.add_argument("--bic-limit", type=positive_int, default=DEFAULT_EXHAUSTIVE_LIMIT,
                     help="max dimension for exhaustive ordering search "
                          "(p * 2**(p-1) column fits)")
    fit.add_argument("--bic-samples", type=positive_int, default=DEFAULT_ORDERING_SAMPLES,
                     help="permutations drawn in sampled ordering search")
    fit.add_argument("--seed", type=uint64, default=0,
                     help="seed for sampled ordering search")
    _add_fit_options(fit)
    _add_common(fit)
    fit.set_defaults(func=cmd_fit)

    ev = subparsers.add_parser("evaluate",
                               help="score a covariance path against a truth")
    ev.add_argument("estimate", help="estimated path CSV (t,i,j,value)")
    ev.add_argument("--truth", default=None, help="true path CSV (t,i,j,value)")
    ev.add_argument("--moving-block", action="store_true",
                    help="use a moving-block proxy of --panel as the truth")
    ev.add_argument("--panel", default=None, help="panel CSV for the proxy")
    ev.add_argument("--block-size", type=int, default=None, help="proxy window width")
    ev.add_argument("--scale", choices=list(SCALES), default="covariance")
    _add_common(ev)
    ev.set_defaults(func=cmd_evaluate)

    sel = subparsers.add_parser("select-block",
                                help="choose a moving-block window width")
    sel.add_argument("panel", help="panel CSV")
    sel.add_argument("--candidates", type=int, nargs="+", required=True,
                     help="increasing odd window widths to score")
    sel.add_argument("--threshold", type=float,
                     default=DEFAULT_STABILIZATION_FRACTION,
                     help="stabilization threshold as a fraction of the "
                          "first candidate's loss")
    _add_common(sel)
    sel.set_defaults(func=cmd_select_block)

    bench = subparsers.add_parser(
        "benchmark",
        help="simulate, fit both models, and score them against the truth",
    )
    bench.add_argument("--replications", type=int, default=20)
    bench.add_argument("--n", type=int, default=1024)
    bench.add_argument("--seed", type=uint64, default=0)
    bench.add_argument("--kalman-q", type=float, default=None,
                       help="fixed walk-noise scale (default: tuned per "
                            "regression over a log grid)")
    bench.add_argument("--kalman-kappa", type=float, default=10.0)
    bench.add_argument("--jobs", type=job_count, default=1,
                       help="worker processes for replications (1 to the CPU count)")
    _add_common(bench)
    bench.set_defaults(func=cmd_benchmark)

    return parser, subparsers.choices


def _parse_bool(raw: str, key: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ConfigFileError(f"option '{key}' expects a boolean, got {raw!r}")


def load_config_overrides(path, sub: _Subcommand) -> dict:
    """Parse a key=value file into argparse defaults for one subcommand."""
    overrides = {}
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise ConfigFileError(f"cannot read config file: {exc}")
    for lineno, line in enumerate(lines, 1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ConfigFileError(f"{path}, line {lineno}: expected key=value")
        key, raw = (part.strip() for part in text.split("=", 1))
        dest = key.replace("-", "_")
        if dest not in sub.options:
            raise ConfigFileError(f"{path}, line {lineno}: unknown option '{key}'")
        action = sub.options[dest]
        if action.nargs == 0:
            overrides[dest] = _parse_bool(raw, key)
        elif action.nargs in ("+", "*") or isinstance(action.nargs, int):
            convert = action.type or str
            overrides[dest] = [convert(tok) for tok in raw.split()]
        else:
            convert = action.type or str
            try:
                value = convert(raw)
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise ConfigFileError(f"{path}, line {lineno}: {exc}")
            if action.choices and value not in action.choices:
                raise ConfigFileError(
                    f"{path}, line {lineno}: '{value}' not in {action.choices}"
                )
            overrides[dest] = value
    return overrides


def main(argv=None) -> int:
    parser, submap = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            sub = submap[args.command]
            sub.set_defaults(**load_config_overrides(args.config, sub))
            args = parser.parse_args(argv)
        return args.func(args)
    except (np.linalg.LinAlgError, FloatingPointError) as exc:
        # LinAlgError subclasses ValueError, which would map it to exit 2.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (PanelFormatError, InvalidBlockSize, DimensionMismatch, TooManyPermutations,
            ConfigFileError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ScgarchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
