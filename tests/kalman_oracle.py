"""The step-by-step Kalman recursion the test suite checks the gain-form
kernel against: ``kalman_predict`` under the random walk and the
information-form ``kalman_update``, which matches the conjugate Gaussian
posterior directly."""

from __future__ import annotations

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from scgarch.exceptions import (
    DimensionMismatch,
    NonPositiveMeasurementVariance,
    SingularPrediction,
)
from scgarch.kalman import KalmanConfig


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
    if not 0 < meas_var < np.inf:
        raise NonPositiveMeasurementVariance(f"meas_var must be finite and > 0: {meas_var}")
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
