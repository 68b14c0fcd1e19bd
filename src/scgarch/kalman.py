"""Kalman filtering of time-varying regression coefficients.

The measurement model is a linear regression ``y_t = x_t' phi_t + e_t``
whose coefficient vector follows a Gaussian random walk with identity
transition and state-noise covariance Q.  The filter runs in gain form
with a Joseph covariance update: with a scalar observation the gain needs
no matrix inverse, and one pass can carry a whole grid of state-noise
candidates.  The information-form ``kalman_update``, which matches the
conjugate Gaussian posterior directly, is kept as the test suite's oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

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
    meas_var : measurement noise variance, strictly positive.
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
        if not self.meas_var > 0:
            raise NonPositiveMeasurementVariance(f"meas_var={self.meas_var}")

    @classmethod
    def default(cls, state_dim: int, meas_var: float, kappa: float = 10.0,
                state_noise: float = 1e-4) -> "KalmanConfig":
        """Weakly informative prior: zero mean, kappa*I covariance, q*I noise."""
        eye = np.eye(state_dim)
        return cls(state_dim, np.zeros(state_dim), kappa * eye, state_noise * eye,
                   float(meas_var))

    def with_state_noise(self, state_noise: float) -> "KalmanConfig":
        return KalmanConfig(self.state_dim, self.phi0, self.p0,
                            state_noise * np.eye(self.state_dim), self.meas_var)


@dataclass
class KalmanRun:
    """Full filtering output for one regression.

    ``innovations[t]`` is the posterior-mean residual
    ``y[t] - x[t] @ phi_path[t]``; ``loglik_pe`` is the prediction-error
    decomposition log-likelihood accumulated from the one-step predictive
    density (used for tuning the state noise, not for reporting).
    """

    phi_path: np.ndarray       # (n, d) posterior means
    p_path: np.ndarray         # (n, d, d) posterior covariances
    phi_pred_path: np.ndarray  # (n, d) predicted means
    innovations: np.ndarray    # (n,)
    loglik_pe: float


def _inv_psd(m: np.ndarray) -> np.ndarray:
    """Invert a symmetric PD matrix, retrying once with diagonal jitter."""
    eye = np.eye(m.shape[0])
    try:
        return cho_solve(cho_factor(m, lower=True), eye)
    except np.linalg.LinAlgError:
        pass
    jitter = 1e-10 * float(np.trace(m)) / m.shape[0]
    try:
        return cho_solve(cho_factor(m + jitter * eye, lower=True), eye)
    except np.linalg.LinAlgError as exc:
        raise SingularPrediction(f"covariance not invertible after jitter: {exc}")


def kalman_predict(phi_prev, p_prev, cfg: KalmanConfig) -> tuple[np.ndarray, np.ndarray]:
    """Propagate the coefficient posterior one step under the random walk.

    With an identity transition the mean is unchanged and the covariance
    grows by the state-noise covariance.
    """
    phi_prev = np.asarray(phi_prev, dtype=float)
    p_prev = np.asarray(p_prev, dtype=float)
    d = cfg.state_dim
    if phi_prev.shape != (d,) or p_prev.shape != (d, d):
        raise DimensionMismatch(
            f"state of shape {phi_prev.shape}/{p_prev.shape} does not match state_dim={d}"
        )
    p_pred = p_prev + cfg.q
    return phi_prev.copy(), 0.5 * (p_pred + p_pred.T)


def kalman_update(phi_pred, p_pred, x, y: float, meas_var: float
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Condition the predicted state on one observation (information form).

    Returns the posterior mean and covariance

        P = inv(inv(P_pred) + x x' / meas_var)
        phi = P @ (x * y / meas_var + inv(P_pred) @ phi_pred)

    The posterior covariance never exceeds the predicted one in the
    Loewner order.
    """
    if not meas_var > 0:
        raise NonPositiveMeasurementVariance(f"meas_var={meas_var}")
    phi_pred = np.asarray(phi_pred, dtype=float)
    p_pred = np.asarray(p_pred, dtype=float)
    x = np.asarray(x, dtype=float)
    d = phi_pred.shape[0]
    if x.shape != (d,) or p_pred.shape != (d, d):
        raise DimensionMismatch(
            f"regressor shape {x.shape} does not match state of dim {d}"
        )
    if not x.any():
        # Zero regressor carries no information; keep the prediction exactly.
        return phi_pred.copy(), p_pred.copy()
    prec_pred = _inv_psd(p_pred)
    post_prec = prec_pred + np.outer(x, x) / meas_var
    p_post = _inv_psd(post_prec)
    p_post = 0.5 * (p_post + p_post.T)
    phi_post = p_post @ (x * (y / meas_var) + prec_pred @ phi_pred)
    return phi_post, p_post


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
    bad = np.flatnonzero(~(meas_var_path > 0))
    if bad.size:
        t = int(bad[0])
        raise NonPositiveMeasurementVariance(
            f"meas_var_path has non-positive entries (t={t}: {meas_var_path[t]})"
        )
    return y, x_panel, meas_var_path


def _gain_filter(y, x_panel, phi0, p0, q, meas_var):
    """Gain-form recursion for G state-noise covariances in one pass.

    ``q`` has shape (G, d, d) and ``meas_var`` is the validated (n,) path.
    Returns the posterior means (n, G, d), posterior covariances
    (n, G, d, d), innovations (n, G) and prediction-error
    log-likelihoods (G,).

    With a scalar observation the update needs no inverse: the gain is
    ``K = P_pred x / s`` with ``s = x' P_pred x + meas_var``, and the
    Joseph form ``(I - K x') P_pred (I - K x')' + meas_var K K'`` keeps the
    covariance symmetric positive semidefinite under rounding.  A zero
    regressor row gives ``K = 0`` and keeps the prediction exactly.
    Because ``meas_var > 0`` every later predicted covariance is positive
    definite once the first one is, so the singularity check runs once,
    on ``p0 + q``, with the jitter ``_inv_psd`` would have allowed.
    """
    n, d = x_panel.shape
    eye = np.eye(d)
    p_pred0 = p0 + q
    jitter = 1e-10 * np.trace(p_pred0, axis1=1, axis2=2) / d
    try:
        np.linalg.cholesky(p_pred0 + jitter[:, None, None] * eye)
    except np.linalg.LinAlgError as exc:
        raise SingularPrediction(f"t=0: covariance not invertible after jitter: {exc}")

    g = q.shape[0]
    phi_path = np.empty((n, g, d))
    p_path = np.empty((n, g, d, d))
    pred_err = np.empty((n, g))
    pred_var = np.empty((n, g))
    phi = np.broadcast_to(phi0, (g, d))
    p = p0
    for t in range(n):
        x = x_panel[t]
        sv = meas_var[t]
        p_pred = p + q
        u = p_pred @ x
        s = u @ x + sv
        e = y[t] - phi @ x
        k = u / s[:, None]
        phi = phi + k * e[:, None]
        a = eye - k[:, :, None] * x
        p = a @ p_pred @ a.transpose(0, 2, 1) + sv * (k[:, :, None] * k[:, None, :])
        p = 0.5 * (p + p.transpose(0, 2, 1))
        phi_path[t] = phi
        p_path[t] = p
        pred_err[t] = e
        pred_var[t] = s

    innovations = y[:, None] - np.einsum("td,tgd->tg", x_panel, phi_path)
    loglik = -0.5 * np.sum(LOG_2PI + np.log(pred_var) + pred_err * pred_err / pred_var,
                           axis=0)
    return phi_path, p_path, innovations, loglik


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
    phi_path, p_path, innovations, loglik = _gain_filter(
        y, x_panel, cfg.phi0, cfg.p0, cfg.q[None], meas_var)
    phi_path = phi_path[:, 0]
    # The random walk has an identity transition: each prediction is the
    # previous posterior mean.
    phi_pred_path = np.vstack([cfg.phi0, phi_path[:-1]])
    return KalmanRun(phi_path, p_path[:, 0], phi_pred_path, innovations[:, 0],
                     float(loglik[0]))


def tune_state_noise(y, x_panel, cfg_base: KalmanConfig, grid) -> float:
    """Pick the state-noise scale maximizing the predictive log-likelihood.

    Every candidate q (with Q = q * I) is filtered in one batched pass;
    ties break toward the smaller q (the grid is scanned in ascending
    order with strict improvement required).
    """
    grid = sorted(float(g) for g in grid)
    if not grid:
        raise ValueError("grid must be non-empty")
    if grid[0] < 0:
        raise ValueError("state-noise candidates must be >= 0")
    y, x_panel, meas_var = _checked_inputs(y, x_panel, cfg_base, None)
    q = np.multiply.outer(grid, np.eye(cfg_base.state_dim))
    *_, loglik = _gain_filter(y, x_panel, cfg_base.phi0, cfg_base.p0, q, meas_var)
    best_q, best_ll = None, -np.inf
    for cand, ll in zip(grid, loglik):
        if ll > best_ll:
            best_q, best_ll = cand, ll
    return best_q
