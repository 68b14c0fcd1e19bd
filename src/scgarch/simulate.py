"""Synthetic data generators used by the consistency and tracking studies.

Two designs are provided: a scalar regression whose coefficient follows a
Gaussian random walk (for checking the coefficient filter), and a
trivariate Gaussian panel whose covariances vary as sines of different
periods (for checking covariance-path tracking).  All generators are pure
functions of their config and seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import NotPositiveDefinite
from .mcd import PD_RTOL
from .model import CovariancePath, TimeSeriesPanel


@dataclass(frozen=True)
class Sim1Config:
    """Random-walk-coefficient regression: y = x * phi_t + noise."""

    n: int
    q_true: float = 0.01
    meas_var: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if not (np.isfinite(self.q_true) and self.q_true >= 0):
            raise ValueError(f"q_true must be finite and >= 0, got {self.q_true}")
        if not (np.isfinite(self.meas_var) and self.meas_var > 0):
            raise ValueError(f"meas_var must be finite and > 0, got {self.meas_var}")


@dataclass(frozen=True)
class Sim2Config:
    """Trivariate panel with sine-varying covariances.

    Pair (2,1) covariance is sin(t / deltas[0]), pair (3,1) is
    sin(t / deltas[1]), pair (3,2) is sin(t / deltas[2]); the diagonal is
    fixed.  The default deltas are n / 8, n / 4 and n / 16 for n = 1024.
    """

    n: int = 1024
    deltas: tuple[float, float, float] = (128.0, 256.0, 64.0)
    diag: tuple[float, float, float] = (2.0, 3.0, 4.0)
    seed: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if len(self.deltas) != 3 or not all(np.isfinite(d) and d > 0 for d in self.deltas):
            raise ValueError("deltas must be three finite positive scales")
        if len(self.diag) != 3 or not all(np.isfinite(v) and v > 0 for v in self.diag):
            raise ValueError("diag must be three finite positive variances")


@dataclass
class Sim1Data:
    y: np.ndarray
    x: np.ndarray
    phi_true: np.ndarray


@dataclass
class Sim2Data:
    panel: TimeSeriesPanel
    truth: CovariancePath
    repairs: int  # number of time steps whose matrix needed a PD shift


def sim2_sigma(t, cfg: Sim2Config) -> np.ndarray:
    """The design covariance matrices at the (possibly fractional) times
    ``t``: one (3, 3) matrix for a scalar, shape (len(t), 3, 3) for a
    sequence."""
    t = np.asarray(t, dtype=float)
    sigmas = np.empty(t.shape + (3, 3))
    sigmas[..., 0, 0], sigmas[..., 1, 1], sigmas[..., 2, 2] = cfg.diag
    sigmas[..., 1, 0] = sigmas[..., 0, 1] = np.sin(t / cfg.deltas[0])
    sigmas[..., 2, 0] = sigmas[..., 0, 2] = np.sin(t / cfg.deltas[1])
    sigmas[..., 2, 1] = sigmas[..., 1, 2] = np.sin(t / cfg.deltas[2])
    return sigmas


def generate_sim2(cfg: Sim2Config) -> Sim2Data:
    """Generate the sine-covariance panel and its true covariance path.

    Every matrix in the path is checked for positive definiteness; any
    failure (not expected for the default configuration) is repaired by
    shifting the diagonal past the most negative eigenvalue and the PD
    floor it is checked against, and the number of repairs is reported.
    """
    n = cfg.n
    sigmas = sim2_sigma(np.arange(1, n + 1, dtype=float), cfg)

    lam_min = np.linalg.eigvalsh(sigmas)[:, 0]
    floor = PD_RTOL * max(cfg.diag)
    bad = np.flatnonzero(lam_min <= floor)
    for idx in bad:
        shift = abs(lam_min[idx]) + max(1e-8, 2 * floor)
        sigmas[idx] += shift * np.eye(3)
    if bad.size and np.any(np.linalg.eigvalsh(sigmas[bad])[:, 0] <= floor):
        raise NotPositiveDefinite("covariance path not repairable")

    rng = np.random.default_rng(cfg.seed)
    z = rng.standard_normal((n, 3))
    factors = np.linalg.cholesky(sigmas)
    values = np.einsum("tij,tj->ti", factors, z)
    return Sim2Data(TimeSeriesPanel(values), CovariancePath(sigmas), int(bad.size))


def generate_sim1(cfg: Sim1Config) -> Sim1Data:
    """Generate the random-walk-coefficient regression triple.

    phi starts at a standard normal draw and accumulates N(0, q_true)
    increments; x is i.i.d. standard normal and y = x * phi + noise.
    """
    rng = np.random.default_rng(cfg.seed)
    n = cfg.n
    phi = np.empty(n)
    phi[0] = rng.standard_normal()
    if n > 1:
        steps = rng.normal(0.0, np.sqrt(cfg.q_true), n - 1) if cfg.q_true > 0 \
            else np.zeros(n - 1)
        phi[1:] = phi[0] + np.cumsum(steps)
    x = rng.standard_normal(n)
    y = x * phi + rng.normal(0.0, np.sqrt(cfg.meas_var), n)
    return Sim1Data(y=y, x=x, phi_true=phi)
