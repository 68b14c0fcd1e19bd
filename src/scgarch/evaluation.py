"""Accuracy evaluation against a known or proxied covariance path.

The moving-block proxy replaces the unobservable true covariance with a
centered windowed second-moment matrix.  Losses are averaged over all
p * p ordered entries (symmetric off-diagonals count twice), per time
step and overall.  ``select_block_size`` implements the stabilization
rule for choosing the window width.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .exceptions import (
    BlockTooLarge,
    BlockTooSmall,
    DimensionMismatch,
    InvalidBlockSize,
)
from .model import CovariancePath, TimeSeriesPanel

SCALES = ("covariance", "correlation")

# Consecutive-loss differences below this fraction of the first
# candidate's loss count as "stabilized".
DEFAULT_STABILIZATION_FRACTION = 0.05


@dataclass
class EvalReport:
    """Per-time and averaged entrywise losses between two paths."""

    mae_path: np.ndarray
    mse_path: np.ndarray
    mae: float
    mse: float


@dataclass
class BlockDiagnostics:
    """One row of the block-selection audit table."""

    q: int
    mae: float
    mse: float
    mae_diff: float | None  # |change| versus the previous candidate
    mse_diff: float | None


@dataclass
class BlockSelection:
    q_star: int
    table: list[BlockDiagnostics]
    stable: bool  # false when no candidate met the stabilization rule


def validate_block_size(q: int, n: int):
    try:
        q = operator.index(q)
    except TypeError:
        raise InvalidBlockSize(f"block size must be an integer, got {q!r}") from None
    if q % 2 == 0:
        raise InvalidBlockSize(f"block size must be odd, got {q}")
    if q < 3:
        raise BlockTooSmall(f"block size must be >= 3, got {q}")
    if q > n:
        raise BlockTooLarge(f"block size {q} exceeds series length {n}")
    return q


def moving_block_proxy(panel: TimeSeriesPanel, q: int) -> CovariancePath:
    """Windowed second-moment proxy for the covariance path.

    Each time step averages the outer products over a window of exactly
    ``q`` observations, centered where possible and shifted to stay
    inside the sample near the edges (so the full-window case q = n
    reproduces the batch second-moment matrix at every step).  Second
    moments are not mean-subtracted (the panel is modelled as mean zero).
    """
    q = validate_block_size(q, panel.n)
    y = panel.values
    n = panel.n
    outer = np.einsum("ti,tj->tij", y, y)
    csum = np.concatenate([np.zeros((1, panel.p, panel.p)), np.cumsum(outer, axis=0)])
    half = q // 2
    lo = np.clip(np.arange(n) - half, 0, n - q)
    sums = csum[lo + q] - csum[lo]
    return CovariancePath(sums / float(q))


def loss_paths(estimate: CovariancePath, truth: CovariancePath,
               scale: str = "covariance") -> EvalReport:
    """Entrywise MAE/MSE between two covariance paths.

    Every time step averages |difference| and difference**2 over all p*p
    ordered entries; ``scale="correlation"`` converts both paths first.
    """
    if scale not in SCALES:
        raise ValueError(f"scale must be one of {SCALES}")
    if estimate.sigmas.shape != truth.sigmas.shape:
        raise DimensionMismatch(
            f"paths of shape {estimate.sigmas.shape} and {truth.sigmas.shape}"
        )
    a = estimate.correlations() if scale == "correlation" else estimate.sigmas
    b = truth.correlations() if scale == "correlation" else truth.sigmas
    diff = a - b
    mae_path = np.mean(np.abs(diff), axis=(1, 2))
    mse_path = np.mean(diff * diff, axis=(1, 2))
    return EvalReport(mae_path, mse_path, float(mae_path.mean()), float(mse_path.mean()))


def select_block_size(panel: TimeSeriesPanel, candidates,
                      threshold_frac: float = DEFAULT_STABILIZATION_FRACTION
                      ) -> BlockSelection:
    """Pick the smallest block width at which both losses stabilize.

    Each candidate's proxy is scored against the per-step outer products;
    the first candidate whose MAE and MSE both move by less than
    ``threshold_frac`` times the first candidate's loss is selected.  If
    none stabilizes, the largest candidate is returned with
    ``stable=False``; a zero threshold never stabilizes.  A negative or
    non-finite threshold raises ValueError.  The full table is returned
    so the choice can be audited.
    """
    if not (np.isfinite(threshold_frac) and threshold_frac >= 0):
        raise ValueError(f"threshold must be finite and >= 0, got {threshold_frac}")
    qs = [validate_block_size(q, panel.n) for q in candidates]
    if not qs:
        raise ValueError("need at least one candidate")
    if any(b <= a for a, b in zip(qs, qs[1:])):
        raise ValueError("candidates must be strictly increasing")

    observed = CovariancePath(np.einsum("ti,tj->tij", panel.values, panel.values))
    losses = [loss_paths(moving_block_proxy(panel, q), observed) for q in qs]

    table = []
    for k, (q, rep) in enumerate(zip(qs, losses)):
        mae_diff = abs(rep.mae - losses[k - 1].mae) if k else None
        mse_diff = abs(rep.mse - losses[k - 1].mse) if k else None
        table.append(BlockDiagnostics(q, rep.mae, rep.mse, mae_diff, mse_diff))

    if len(qs) == 1:
        return BlockSelection(qs[0], table, stable=True)
    thr_mae = threshold_frac * losses[0].mae
    thr_mse = threshold_frac * losses[0].mse
    for row in table[1:]:
        if row.mae_diff < thr_mae and row.mse_diff < thr_mse:
            return BlockSelection(row.q, table, stable=True)
    return BlockSelection(qs[-1], table, stable=False)
