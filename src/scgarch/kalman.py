"""Kalman filtering of time-varying regression coefficients.

The measurement model is a linear regression ``y_t = x_t' phi_t + e_t``
whose coefficient vector follows a Gaussian random walk with identity
transition and state-noise covariance Q.  The filter runs in gain form
with the exactly symmetric optimal-gain covariance update: a scalar
observation needs no matrix inverse.  One pass of the private kernel
carries a batch of independent regressions of one dimension, each with
its own data, Q and measurement-variance path.  ``filter_regression`` is
a batch of one, and ``tune_state_noise`` filters a whole grid of
state-noise candidates in one pass.  The model's column fit calls the
kernel directly: all the regressions of one predecessor-set size at
every candidate in one pass, the one-predecessor regressions zero-padded
into the two-predecessor pass (padding one regressor is exact, see
``_gain_filter``), keeping coefficient paths but, unlike
``filter_regression``, no covariance paths.  So does the coefficient-bias
study in ``experiments``, a block of its d = 1 replications per pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import (
    DimensionMismatch,
    NonPositiveMeasurementVariance,
    SingularPrediction,
)

LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass(frozen=True)
class KalmanConfig:
    """Prior and noise settings for one coefficient regression.

    Attributes
    ----------
    state_dim : number of regressors (predecessor variables).
    phi0 : prior mean of the coefficient vector, shape (state_dim,).
    p0 : prior covariance, shape (state_dim, state_dim), symmetric PSD.
    q : state-noise covariance of the coefficient random walk, same shape.
    meas_var : measurement noise variance, finite and strictly positive.
    """

    state_dim: int
    phi0: np.ndarray
    p0: np.ndarray
    q: np.ndarray
    meas_var: float

    def __post_init__(self):
        d = self.state_dim
        if d < 1:
            raise DimensionMismatch("state_dim must be >= 1")
        object.__setattr__(self, "phi0", np.asarray(self.phi0, dtype=float).reshape(d))
        for name in ("p0", "q"):
            m = np.asarray(getattr(self, name), dtype=float)
            if m.shape != (d, d):
                raise DimensionMismatch(f"{name} must have shape {(d, d)}, got {m.shape}")
            if not np.allclose(m, m.T, atol=1e-12):
                raise DimensionMismatch(f"{name} must be symmetric")
            if np.linalg.eigvalsh(m)[0] < -1e-10 * max(1.0, float(np.abs(m).max())):
                raise DimensionMismatch(f"{name} must be positive semidefinite")
            object.__setattr__(self, name, 0.5 * (m + m.T))
        if not 0 < self.meas_var < np.inf:
            raise NonPositiveMeasurementVariance(f"meas_var must be finite and > 0: {self.meas_var}")

    @classmethod
    def default(cls, state_dim: int, meas_var: float, kappa: float = 10.0,
                state_noise: float = 1e-4) -> "KalmanConfig":
        """Weakly informative prior: zero mean, kappa*I covariance, q*I noise."""
        eye = np.eye(state_dim)
        return cls(state_dim, np.zeros(state_dim), kappa * eye, state_noise * eye,
                   float(meas_var))


@dataclass
class KalmanRun:
    """Full filtering output for one regression.

    ``innovations[t]`` is the posterior-mean residual
    ``y[t] - x[t] @ phi_path[t]``; ``loglik_pe`` is the prediction-error
    decomposition log-likelihood accumulated from the one-step predictive
    density (used for tuning the state noise, not for reporting).
    """

    phi_path: np.ndarray     # (n, d) posterior means
    p_path: np.ndarray       # (n, d, d) posterior covariances
    innovations: np.ndarray  # (n,)
    loglik_pe: float


def _checked_inputs(y, x_panel, cfg: KalmanConfig, meas_var_path):
    """Validate one regression's data; return y, x and the (n,) variance path."""
    y = np.asarray(y, dtype=float).reshape(-1)
    x_panel = np.asarray(x_panel, dtype=float)
    n = y.shape[0]
    if n < 1:
        raise DimensionMismatch("need at least one observation")
    if x_panel.shape != (n, cfg.state_dim):
        raise DimensionMismatch(
            f"x_panel shape {x_panel.shape} does not match ({n}, {cfg.state_dim})"
        )
    if not (np.all(np.isfinite(y)) and np.all(np.isfinite(x_panel))):
        raise ValueError("y and x_panel must be finite")
    if meas_var_path is None:
        return y, x_panel, np.full(n, cfg.meas_var)
    meas_var_path = np.asarray(meas_var_path, dtype=float).reshape(n)
    bad = np.flatnonzero(~((meas_var_path > 0) & (meas_var_path < np.inf)))
    if bad.size:
        t = int(bad[0])
        raise NonPositiveMeasurementVariance(
            f"meas_var_path entries must be finite and > 0 (t={t}: {meas_var_path[t]})"
        )
    return y, x_panel, meas_var_path


def _gain_filter(y, x_panel, phi0, p0, q, meas_var, keep_phi=False, keep_p=False):
    """Gain-form recursion for a batch of B regressions of one dimension d.

    Batch element b has its own response ``y[:, b]``, regressor rows
    ``x_panel[:, b]``, measurement-variance path ``meas_var[:, b]`` and
    state-noise covariance ``q[b]``; ``y`` (n, B), ``x_panel`` (n, B, d)
    and ``meas_var`` (n, B) may instead have a batch axis of length 1,
    shared by every element, and ``q`` has shape (B, d, d).  The prior
    ``phi0`` (d,), ``p0`` (d, d) is shared.  Returns the innovations (n, B),
    the prediction-error log-likelihoods (B,), the posterior means
    (n, B, d) with ``keep_phi`` and the posterior covariances (n, B, d, d)
    with ``keep_p``; a path not kept is ``None``, so a wide batch stores
    only (n, B) arrays.

    With ``u = P_pred x``, ``s = x' u + meas_var`` and the prediction
    error ``e``, the optimal gain ``u / s`` moves the mean by ``u e / s``
    and gives the covariance ``P_pred - u u' / s``, exactly symmetric as
    each entry of ``u u'`` is one product.  The posterior residual is
    ``e * meas_var / s``.  A zero regressor row keeps the prediction exactly.
    Because ``meas_var > 0`` every later predicted covariance is positive
    definite once the first one is, so the singularity check runs once,
    on ``p0 + q``, allowing a diagonal jitter of 1e-10 times its mean
    diagonal entry, as the tests' information-form oracle does.

    Every product is taken per batch element over C-contiguous regressor
    rows, so an element's result, to the last bit, depends neither on the
    batch it is filtered in nor on the memory layout of ``x_panel``.

    A one-regressor element padded with zero regressors to any width d
    (zero prior mean, diagonal ``p0`` and ``q``) filters exactly as it
    does at d = 1: its first coefficient and covariance entry, its
    innovations and its log-likelihood keep their bits.  Each contraction
    (``P x``, ``x' u``, ``x' phi``) then has one nonzero product, its other
    terms being exact zeros, so no summation order or fused multiply-add
    can round it differently, and the padded coefficients and off-diagonal
    covariance entries stay 0 while every ``e / s`` is finite.  Two or more
    regressors do not pad exactly: a BLAS product may sum their terms in
    another order.
    """
    x_panel = np.ascontiguousarray(x_panel)
    n, _, d = x_panel.shape
    b = q.shape[0]
    p_pred0 = p0 + q
    jitter = 1e-10 * np.trace(p_pred0, axis1=1, axis2=2) / d
    try:
        np.linalg.cholesky(p_pred0 + jitter[:, None, None] * np.eye(d))
    except np.linalg.LinAlgError as exc:
        raise SingularPrediction(f"t=0: covariance not invertible after jitter: {exc}")

    x_cols = x_panel[:, :, :, None]
    x_rows = x_panel[:, :, None, :]
    phi_path = np.empty((n, b, d)) if keep_phi else None
    p_path = np.empty((n, b, d, d)) if keep_p else None
    pred_err, pred_var = np.empty((2, n, b))
    phi = np.broadcast_to(phi0[:, None], (b, d, 1))
    p = p0
    for t in range(n):
        p_pred = p + q
        u = p_pred @ x_cols[t]
        s = (x_rows[t] @ u)[:, 0, 0] + meas_var[t]
        e = y[t] - (x_rows[t] @ phi)[:, 0, 0]
        phi = phi + u * (e / s)[:, None, None]
        p = p_pred - (u * u.transpose(0, 2, 1)) / s[:, None, None]
        pred_err[t] = e
        pred_var[t] = s
        if keep_phi:
            phi_path[t] = phi[:, :, 0]
        if keep_p:
            p_path[t] = p

    innovations = pred_err * meas_var / pred_var
    terms = LOG_2PI + np.log(pred_var) + pred_err * pred_err / pred_var
    # Each element's terms summed as one contiguous row: numpy then sums
    # pairwise, as for a batch of one, instead of adding rows in turn.
    loglik = -0.5 * np.sum(np.ascontiguousarray(terms.T), axis=1)
    return innovations, loglik, phi_path, p_path


def _checked_grid(grid) -> list[float]:
    """Validate a sequence of state-noise candidates; return them in
    ascending order.  A bare number raises TypeError."""
    if np.ndim(grid) != 1:
        raise TypeError(f"need a sequence of state-noise candidates, got {grid!r}")
    grid = sorted(float(g) for g in grid)
    if not (grid and np.all(np.isfinite(grid)) and grid[0] >= 0):
        raise ValueError(f"need a non-empty grid of finite values >= 0, got {grid}")
    return grid


def _best_candidate(loglik) -> int | None:
    """Index of the first strict maximum of ``loglik``: scanning an
    ascending grid with strict improvement sends ties to the smaller q."""
    best, best_ll = None, -np.inf
    for i, ll in enumerate(loglik):
        if ll > best_ll:
            best, best_ll = i, ll
    return best


def filter_regression(y, x_panel, cfg: KalmanConfig, meas_var_path=None) -> KalmanRun:
    """Run the full predict/update recursion over one regression.

    Parameters
    ----------
    y : (n,) array_like
        Response series.
    x_panel : (n, state_dim) array_like
        Regressor rows (the predecessor variables at each time).
    cfg : KalmanConfig
    meas_var_path : (n,) array_like, optional
        Per-step measurement variances overriding ``cfg.meas_var``; used
        when re-filtering with fitted conditional variances.
    """
    y, x_panel, meas_var = _checked_inputs(y, x_panel, cfg, meas_var_path)
    innovations, loglik, phi_path, p_path = _gain_filter(
        y[:, None], x_panel[:, None], cfg.phi0, cfg.p0, cfg.q[None], meas_var[:, None],
        keep_phi=True, keep_p=True)
    return KalmanRun(phi_path[:, 0], p_path[:, 0], innovations[:, 0], float(loglik[0]))


def tune_state_noise(y, x_panel, cfg_base: KalmanConfig, grid):
    """Pick the state-noise scale maximizing the predictive log-likelihood.

    Every candidate q (with Q = q * I) is filtered in one batched pass;
    ties break toward the smaller q (the grid is scanned in ascending
    order with strict improvement required).  Returns the chosen q.
    """
    grid = _checked_grid(grid)
    y, x_panel, meas_var = _checked_inputs(y, x_panel, cfg_base, None)
    q = np.multiply.outer(grid, np.eye(cfg_base.state_dim))
    _, loglik, _, _ = _gain_filter(y[:, None], x_panel[:, None], cfg_base.phi0,
                                   cfg_base.p0, q, meas_var[:, None])
    best = _best_candidate(loglik)
    return None if best is None else grid[best]
