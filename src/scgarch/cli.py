"""Command-line interface: simulate, fit, evaluate, select-block, benchmark.

Every command writes its full effective configuration (defaults, seeds
and all) to ``config.echo`` in the output directory, so a run can be
reproduced from its artifacts alone; ``simulate`` echoes only the
options of the kind it generates.  ``--kalman-q`` takes the state-noise
candidates of ``ScgarchConfig.state_noise``: one fixes the noise,
several are searched per regression, and ``fit --tune-state-noise`` is
``--kalman-q`` with the tuning grid.  Options can also be supplied in a
key=value config file via ``--config``, keyed by long flag name;
explicit flags win over the file, which wins over built-in defaults, and
a required option the file sets counts as given.  A ``config.echo``,
every line of which is an option, is such a file: the command with the
same positional arguments and ``--config <old dir>/config.echo
--out-dir <new dir>`` writes the same outputs again, from any directory,
as every path is taken as absolute.
A command makes its output directory only once it has its results: a
rejected run leaves none.

Exit codes: 0 success, 2 input or parse error, 3 numerical failure,
4 benchmark with every replication failed.
"""

from __future__ import annotations

import argparse
import os
import re
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
from .experiments import BenchmarkConfig, check_jobs, run_benchmark
from .model import (
    DEFAULT_TUNE_GRID,
    MODELS,
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


def uint64(value) -> int:
    seed = int(value)
    if not 0 <= seed < 2**64:
        raise argparse.ArgumentTypeError("seed must be a 64-bit unsigned integer")
    return seed


def job_count(value) -> int:
    jobs = int(value)
    try:
        return check_jobs(jobs)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _echo(args, out: Path, omit=()):
    """Write every option of ``args`` but those in ``omit``."""
    io.write_config_echo(out / "config.echo", {
        k: v for k, v in vars(args).items() if k not in ("func", "command", *omit)})


def cmd_simulate(args) -> int:
    if args.kind == "sim2":
        data = generate_sim2(Sim2Config(n=args.n, deltas=tuple(args.deltas),
                                        diag=tuple(args.diag), seed=args.seed))
        out = _out_dir(args)
        io.write_panel(out / "panel.csv", data.panel)
        io.write_cov_path(out / "truth_cov.csv", data.truth)
        print(f"wrote panel.csv ({data.panel.n} x {data.panel.p}) and truth_cov.csv"
              f" (PD repairs: {data.repairs})")
        _echo(args, out, omit=("q_true", "meas_var"))
    else:
        data = generate_sim1(Sim1Config(n=args.n, q_true=args.q_true,
                                        meas_var=args.meas_var, seed=args.seed))
        out = _out_dir(args)
        io.write_columns(out / "panel.csv", ["y", "x", "phi_true"],
                         np.column_stack([data.y, data.x, data.phi_true]))
        print(f"wrote panel.csv ({args.n} rows: y, x, phi_true)")
        _echo(args, out, omit=("deltas", "diag"))
    return EXIT_OK


def cmd_fit(args) -> int:
    panel = io.read_panel(args.panel)
    config = ScgarchConfig(kappa=args.kalman_kappa, state_noise=args.kalman_q,
                           two_pass=args.two_pass)
    if args.ordering == "fixed":
        result = fit_model(panel, args.model, config)
    else:
        result = order_by_bic(panel, config, model=args.model,
                              mode=args.ordering.removeprefix("bic-"))

    out = _out_dir(args)
    io.write_cov_path(out / "cov_path.csv", result.cov_path)
    io.write_cov_path(out / "corr_path.csv",
                      CovariancePath(result.cov_path.correlations()))
    io.write_coeff_path(out / "coeff_path.csv", result.t_path)
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
        raise ValueError("exactly one of --truth or --moving-block is required")
    estimate = io.read_cov_path(args.estimate)
    if args.truth:
        if args.panel or args.block_size is not None:
            raise ValueError("--truth takes neither --panel nor --block-size")
        truth = io.read_cov_path(args.truth)
        source = f"file:{args.truth}"
    else:
        if not args.panel or args.block_size is None:
            raise ValueError("--moving-block requires --panel and --block-size")
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
    if args.candidates is None:
        raise ValueError("select-block needs --candidates")
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
    fit_cfg = ScgarchConfig(kappa=args.kalman_kappa, state_noise=args.kalman_q)
    result = run_benchmark(BenchmarkConfig(replications=args.replications, n=args.n,
                                           seed=args.seed, fit=fit_cfg), jobs=args.jobs)
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
    sub.add_argument("--out-dir", type=os.path.abspath, default=".",
                     help="directory for output files")
    sub.add_argument("--config", default=None,
                     help="key=value file supplying defaults for this command")


def _add_kalman_options(sub, state_noise, tune=False):
    """``--kalman-q``, the ``state_noise`` candidates; with ``tune`` its
    shorthand for the tuning grid, ``--tune-state-noise``, exclusive of
    it; and ``--kalman-kappa``."""
    noise = sub.add_mutually_exclusive_group() if tune else sub
    noise.add_argument("--kalman-q", type=float, nargs="+", default=state_noise,
                       help="coefficient random-walk noise scale; several values "
                            "are searched per regression by predictive likelihood")
    if tune:
        noise.add_argument("--tune-state-noise", dest="kalman_q", action="store_const",
                           const=DEFAULT_TUNE_GRID,
                           help="--kalman-q with the log grid "
                                + " ".join(f"{q:g}" for q in DEFAULT_TUNE_GRID))
    sub.add_argument("--kalman-kappa", type=float, default=ScgarchConfig.kappa,
                     help="prior covariance scale for the coefficients")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="scgarch",
        description="Time-varying covariance estimation with Cholesky-"
                    "parameterized regressions and GARCH variances",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    sim = subparsers.add_parser("simulate", help="generate synthetic data")
    sim.add_argument("kind", choices=["sim1", "sim2"])
    sim.add_argument("--n", type=int, default=Sim2Config.n)
    sim.add_argument("--seed", type=uint64, default=0)
    sim.add_argument("--q-true", type=float, default=Sim1Config.q_true,
                     help="sim1 coefficient walk variance")
    sim.add_argument("--meas-var", type=float, default=Sim1Config.meas_var,
                     help="sim1 measurement noise variance")
    sim.add_argument("--deltas", type=float, nargs=3, default=Sim2Config.deltas,
                     help="sim2 sine time scales for pairs (2,1), (3,1), (3,2)")
    sim.add_argument("--diag", type=float, nargs=3, default=Sim2Config.diag,
                     help="sim2 variances")
    _add_common(sim)
    sim.set_defaults(func=cmd_simulate)

    fit = subparsers.add_parser("fit", help="fit a covariance-path model to a panel")
    fit.add_argument("panel", type=os.path.abspath,
                     help="panel CSV (header labels, one row per step)")
    fit.add_argument("--model", choices=list(MODELS), default="scgarch")
    fit.add_argument("--ordering", choices=["fixed", "bic-exhaustive", "bic-beam"],
                     default="fixed")
    _add_kalman_options(fit, ScgarchConfig.state_noise, tune=True)
    fit.add_argument("--two-pass", action="store_true",
                     help="re-filter coefficients using fitted variances")
    _add_common(fit)
    fit.set_defaults(func=cmd_fit)

    ev = subparsers.add_parser("evaluate",
                               help="score a covariance path against a truth")
    ev.add_argument("estimate", type=os.path.abspath, help="estimated path CSV (t,i,j,value)")
    ev.add_argument("--truth", type=os.path.abspath, default=None,
                    help="true path CSV (t,i,j,value)")
    ev.add_argument("--moving-block", action="store_true",
                    help="use a moving-block proxy of --panel as the truth")
    ev.add_argument("--panel", type=os.path.abspath, default=None,
                    help="panel CSV for the proxy")
    ev.add_argument("--block-size", type=int, default=None, help="proxy window width")
    ev.add_argument("--scale", choices=list(SCALES), default="covariance")
    _add_common(ev)
    ev.set_defaults(func=cmd_evaluate)

    sel = subparsers.add_parser("select-block",
                                help="choose a moving-block window width")
    sel.add_argument("panel", type=os.path.abspath, help="panel CSV")
    sel.add_argument("--candidates", type=int, nargs="+",
                     help="increasing odd window widths to score (required)")
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
    bench.add_argument("--replications", type=int, default=BenchmarkConfig.replications)
    bench.add_argument("--n", type=int, default=BenchmarkConfig.n)
    bench.add_argument("--seed", type=uint64, default=0)
    _add_kalman_options(bench, BenchmarkConfig().fit.state_noise)
    bench.add_argument("--jobs", type=job_count, default=1,
                       help="worker processes for replications (1 to the CPU count)")
    _add_common(bench)
    bench.set_defaults(func=cmd_benchmark)

    return parser, subparsers.choices


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def _option_value(action, raw: str):
    """The value of one option from its text in a config file."""
    if raw == "None" and action.default is None:
        return None
    convert = action.type or str
    if action.nargs in ("+", "*") or isinstance(action.nargs, int):
        value = [convert(tok) for tok in raw.split()]
        if not value and action.nargs == "+":
            raise ValueError("expected at least one value")
        if isinstance(action.nargs, int) and len(value) != action.nargs:
            raise ValueError(f"expected {action.nargs} values, got {len(value)}")
        return value
    value = convert(raw)
    if action.choices and value not in action.choices:
        raise ValueError(f"'{value}' not in {action.choices}")
    return value


def load_config_overrides(path, sub: argparse.ArgumentParser) -> dict:
    """Parse a key=value file into argparse defaults for one subcommand.

    Keys are long flag names, with ``-`` or ``_``.  A flag set to true
    stores what giving it stores (``tune-state-noise = true`` sets
    ``kalman_q`` to the tuning grid); set to false it sets nothing.  Two
    lines setting one value are rejected, as the command line rejects
    ``--kalman-q`` with ``--tune-state-noise``.  A ``#`` at the start of a
    line or after whitespace starts a comment; elsewhere it is part of the
    value.  A ``config.echo`` loads back: its ``config`` line and the
    positional arguments, which the command line gives, are skipped, and
    ``None`` restores an option whose default is None.
    """
    overrides, set_on = {}, {}
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise ValueError(f"cannot read config file: {exc}")
    positionals = {action.dest for action in sub._actions if not action.option_strings}
    options = {flag[2:].replace("-", "_"): action for action in sub._actions
               if action.dest not in ("help", "config")
               for flag in action.option_strings if flag.startswith("--")}
    for lineno, line in enumerate(lines, 1):
        text = re.split(r"(?:^|\s)#", line, maxsplit=1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ValueError(f"{path}, line {lineno}: expected key=value")
        key, raw = (part.strip() for part in text.split("=", 1))
        dest = key.replace("-", "_")
        if dest == "config" or dest in positionals:
            continue
        action = options.get(dest)
        if action is None:
            raise ValueError(f"{path}, line {lineno}: unknown option '{key}'")
        where = f"{path}, line {lineno}: option '{key}'"
        try:
            if action.nargs != 0:
                value = _option_value(action, raw)
            elif _parse_bool(raw):
                value = action.const
            else:
                continue
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise ValueError(f"{where}: {exc}")
        if action.dest in set_on:
            raise ValueError(f"{where}: sets {action.dest}, as line "
                             f"{set_on[action.dest]} does")
        overrides[action.dest], set_on[action.dest] = value, lineno
    return overrides


def _parse_args(parser, submap, argv):
    """Parse ``argv``, then again over the ``--config`` file's values, if
    any, as the subcommand's defaults."""
    args = parser.parse_args(argv)
    if args.config:
        sub = submap[args.command]
        sub.set_defaults(**load_config_overrides(args.config, sub))
        args = parser.parse_args(argv)
    return args


def main(argv=None) -> int:
    parser, submap = build_parser()
    try:
        args = _parse_args(parser, submap, argv)
        return args.func(args)
    except (np.linalg.LinAlgError, FloatingPointError) as exc:
        # LinAlgError subclasses ValueError, which would map it to exit 2.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (PanelFormatError, InvalidBlockSize, DimensionMismatch, TooManyPermutations,
            OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ScgarchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
