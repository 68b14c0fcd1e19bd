"""Univariate GARCH recursion, likelihood, and constrained (1,1) fitting.

The conditional variance recursion is

    s2[t] = omega + sum_i alpha[i] * eps[t-1-i]**2 + sum_l beta[l] * s2[t-1-l]

with every pre-sample term replaced by ``sigma2_init``.  The recursion is
defined for any arch/garch orders; maximum-likelihood fitting is provided
for order (1,1) only, with covariance stationarity enforced by
construction through an unconstrained reparameterization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize
from scipy.signal import lfilter
from scipy.special import expit, logit

from .exceptions import DegenerateSeries, InvalidParameters, SeriesTooShort

# alpha + beta is kept strictly below one by this margin during fitting.
STATIONARITY_MARGIN = 1e-6

MIN_FIT_LENGTH = 20


def _as_coef_tuple(value, name: str) -> tuple[float, ...]:
    coefs = (float(value),) if np.isscalar(value) else tuple(float(v) for v in value)
    if any(not np.isfinite(c) or c < 0 for c in coefs):
        raise InvalidParameters(f"{name} coefficients must be finite and >= 0: {coefs}")
    return coefs


@dataclass(frozen=True)
class GarchParams:
    """Variance recursion parameters (omega, alpha[], beta[]).

    ``alpha`` and ``beta`` accept a scalar or a sequence; the orders are
    their lengths (named arch/garch order here to avoid clashing with the
    panel dimension).
    """

    omega: float
    alpha: tuple[float, ...]
    beta: tuple[float, ...]

    def __post_init__(self):
        if not (np.isfinite(self.omega) and self.omega > 0):
            raise InvalidParameters(f"omega must be finite and > 0, got {self.omega}")
        object.__setattr__(self, "alpha", _as_coef_tuple(self.alpha, "alpha"))
        object.__setattr__(self, "beta", _as_coef_tuple(self.beta, "beta"))

    @property
    def arch_order(self) -> int:
        return len(self.alpha)

    @property
    def garch_order(self) -> int:
        return len(self.beta)

    @property
    def persistence(self) -> float:
        return sum(self.alpha) + sum(self.beta)

    @property
    def is_stationary(self) -> bool:
        return self.persistence < 1.0

    @property
    def unconditional_variance(self) -> float:
        if not self.is_stationary:
            raise InvalidParameters("unconditional variance requires persistence < 1")
        return self.omega / (1.0 - self.persistence)


@dataclass
class GarchFit:
    """Result of a maximum-likelihood fit on one innovation series."""

    params: GarchParams
    sigma2_path: np.ndarray
    loglik: float
    converged: bool
    iterations: int
    sigma2_init: float


def _validate_filter_inputs(eps, sigma2_init):
    eps = np.asarray(eps, dtype=float).reshape(-1)
    if eps.shape[0] < 1:
        raise InvalidParameters("need at least one observation")
    if sigma2_init is None:
        sigma2_init = float(np.var(eps))
    if not (np.isfinite(sigma2_init) and sigma2_init > 0):
        raise InvalidParameters(f"sigma2_init must be finite and > 0, got {sigma2_init}")
    return eps, float(sigma2_init)


def garch_filter(params: GarchParams, eps, sigma2_init: float | None = None) -> np.ndarray:
    """Run the variance recursion over an innovation series.

    Pre-sample squared innovations and variances are both set to
    ``sigma2_init`` (default: the sample variance of ``eps``).  The output
    is strictly positive for any valid parameters.
    """
    eps, sigma2_init = _validate_filter_inputs(eps, sigma2_init)
    n = eps.shape[0]
    e2 = eps * eps
    if params.arch_order == 1 and params.garch_order == 1:
        alpha, beta = params.alpha[0], params.beta[0]
        e2_lag = np.empty(n)
        e2_lag[0] = sigma2_init
        e2_lag[1:] = e2[:-1]
        driver = params.omega + alpha * e2_lag
        s2, _ = lfilter([1.0], [1.0, -beta], driver, zi=[beta * sigma2_init])
        return s2
    s2 = np.empty(n)
    for t in range(n):
        acc = params.omega
        for i, a in enumerate(params.alpha):
            acc += a * (e2[t - 1 - i] if t - 1 - i >= 0 else sigma2_init)
        for l, b in enumerate(params.beta):
            acc += b * (s2[t - 1 - l] if t - 1 - l >= 0 else sigma2_init)
        s2[t] = acc
    return s2


def garch_loglik(params: GarchParams, eps, sigma2_init: float | None = None) -> float:
    """Gaussian log-likelihood up to an additive constant, sign-flipped so
    that larger is better: ``-sum(log s2[t] + eps[t]**2 / s2[t])``."""
    eps, sigma2_init = _validate_filter_inputs(eps, sigma2_init)
    s2 = garch_filter(params, eps, sigma2_init)
    return float(-np.sum(np.log(s2) + eps * eps / s2))


def _from_unconstrained(z) -> tuple[float, float, float]:
    """Map (a, b, c) in R^3 to (omega, alpha, beta) with alpha+beta < 1."""
    a, b, c = z
    omega = float(np.exp(a))
    s = (1.0 - STATIONARITY_MARGIN) * float(expit(b))
    u = float(expit(c))
    return omega, s * u, s * (1.0 - u)


def _to_unconstrained(omega: float, alpha: float, beta: float) -> np.ndarray:
    s = alpha + beta
    return np.array([
        np.log(omega),
        logit(s / (1.0 - STATIONARITY_MARGIN)),
        logit(alpha / s),
    ])


def _neg_loglik_and_grad(z, eps, e2, e2_lag, sigma2_init):
    """Value and analytic gradient of the negated log-likelihood in the
    unconstrained (a, b, c) space, via the chain rule through the variance
    recursion (each sensitivity path is the same AR(1) filter)."""
    a, b, c = z
    with np.errstate(over="ignore", invalid="ignore"):
        omega = np.exp(a)
        sb = expit(b)
        s = (1.0 - STATIONARITY_MARGIN) * sb
        u = expit(c)
        alpha, beta = s * u, s * (1.0 - u)

        driver = omega + alpha * e2_lag
        s2, _ = lfilter([1.0], [1.0, -beta], driver, zi=[beta * sigma2_init])
        if not np.all(np.isfinite(s2)) or np.any(s2 <= 0):
            return np.inf, np.zeros(3)
        f = np.sum(np.log(s2) + e2 / s2)
        if not np.isfinite(f):
            return np.inf, np.zeros(3)

        w = (s2 - e2) / (s2 * s2)
        ar = [1.0, -beta]
        ds2_domega, _ = lfilter([1.0], ar, np.ones_like(s2), zi=[0.0])
        ds2_dalpha, _ = lfilter([1.0], ar, e2_lag, zi=[0.0])
        s2_lag = np.empty_like(s2)
        s2_lag[0] = sigma2_init
        s2_lag[1:] = s2[:-1]
        ds2_dbeta, _ = lfilter([1.0], ar, s2_lag, zi=[0.0])

        g_omega = w @ ds2_domega
        g_alpha = w @ ds2_dalpha
        g_beta = w @ ds2_dbeta

        ds_db = (1.0 - STATIONARITY_MARGIN) * sb * (1.0 - sb)
        du_dc = u * (1.0 - u)
        grad = np.array([
            g_omega * omega,
            (g_alpha * u + g_beta * (1.0 - u)) * ds_db,
            (g_alpha - g_beta) * s * du_dc,
        ])
        if not np.all(np.isfinite(grad)):
            return np.inf, np.zeros(3)
    return float(f), grad


# Fixed (alpha, beta) starting points; omega targets the sample variance.
_FIT_STARTS = ((0.05, 0.90), (0.10, 0.80), (0.20, 0.60))


def garch_fit(eps, order: tuple[int, int] = (1, 1), *,
              gtol: float = 1e-6, xtol: float = 1e-9) -> GarchFit:
    """Fit a GARCH(1,1) model by constrained maximum likelihood.

    The parameters are optimized in an unconstrained space (log omega, a
    logistic persistence and a logistic arch share), which enforces
    omega > 0, alpha, beta >= 0 and alpha + beta < 1 by construction.
    Three fixed starting points are tried with BFGS; the best final value
    wins.  ``converged`` is true when the winning run ends with gradient
    infinity-norm below ``gtol`` or a final step shorter than ``xtol``;
    otherwise the best point found so far is returned with the flag false.

    Raises
    ------
    SeriesTooShort
        If fewer than 20 observations are supplied.
    DegenerateSeries
        If the series has zero variance.
    """
    if order != (1, 1):
        raise ValueError(f"only order (1, 1) fitting is supported, got {order}")
    eps = np.asarray(eps, dtype=float).reshape(-1)
    n = eps.shape[0]
    if n < MIN_FIT_LENGTH:
        raise SeriesTooShort(f"need at least {MIN_FIT_LENGTH} observations, got {n}")
    if not np.all(np.isfinite(eps)):
        raise InvalidParameters("series contains non-finite values")
    v = float(np.var(eps))
    if v <= 0 or np.all(eps == eps[0]):
        raise DegenerateSeries("series has zero variance")

    sigma2_init = v
    e2 = eps * eps
    e2_lag = np.empty(n)
    e2_lag[0] = sigma2_init
    e2_lag[1:] = e2[:-1]

    best = None
    for alpha0, beta0 in _FIT_STARTS:
        z0 = _to_unconstrained(v * (1.0 - alpha0 - beta0), alpha0, beta0)
        steps = {"last": None, "prev_x": z0.copy()}

        def _track(xk):
            steps["last"] = float(np.max(np.abs(xk - steps["prev_x"])))
            steps["prev_x"] = xk.copy()

        res = minimize(
            _neg_loglik_and_grad, z0, args=(eps, e2, e2_lag, sigma2_init),
            method="BFGS", jac=True, callback=_track,
            options={"gtol": gtol, "maxiter": 500},
        )
        converged = bool(np.max(np.abs(res.jac)) < gtol) or (
            steps["last"] is not None and steps["last"] < xtol
        )
        if best is None or res.fun < best[0].fun:
            best = (res, converged)

    res, converged = best
    omega, alpha, beta = _from_unconstrained(res.x)
    params = GarchParams(omega, alpha, beta)
    return GarchFit(
        params=params,
        sigma2_path=garch_filter(params, eps, sigma2_init),
        loglik=garch_loglik(params, eps, sigma2_init),
        converged=converged,
        iterations=int(res.nit),
        sigma2_init=sigma2_init,
    )


def simulate_garch(params: GarchParams, n: int, seed=None,
                   sigma2_init: float | None = None, burn: int = 200
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Draw an innovation series and its variance path from the recursion.

    Gaussian shocks; the recursion starts at the unconditional variance
    unless ``sigma2_init`` is given.  Returns ``(eps, sigma2)`` after
    discarding ``burn`` warm-up steps.
    """
    if sigma2_init is None:
        sigma2_init = params.unconditional_variance
    if not sigma2_init > 0:
        raise InvalidParameters("sigma2_init must be > 0")
    rng = np.random.default_rng(seed)
    total = n + burn
    z = rng.standard_normal(total)
    p, q = params.arch_order, params.garch_order
    e2_hist = [sigma2_init] * p
    s2_hist = [sigma2_init] * q
    eps = np.empty(total)
    s2 = np.empty(total)
    for t in range(total):
        var = params.omega
        for i, a in enumerate(params.alpha):
            var += a * e2_hist[-1 - i]
        for l, b in enumerate(params.beta):
            var += b * s2_hist[-1 - l]
        s2[t] = var
        eps[t] = np.sqrt(var) * z[t]
        if p:
            e2_hist.append(eps[t] * eps[t])
            del e2_hist[0]
        if q:
            s2_hist.append(var)
            del s2_hist[0]
    return eps[burn:], s2[burn:]
