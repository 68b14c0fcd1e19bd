"""Univariate GARCH(1,1) recursion, likelihood, and constrained fitting.

The conditional variance recursion is

    s2[t] = omega + alpha * eps[t-1]**2 + beta * s2[t-1]

with the pre-sample squared innovation and variance both replaced by
``sigma2_init``.  Maximum-likelihood fitting works in the natural
parameters over omega > 0, alpha >= 0, beta >= 0 and
alpha + beta <= 1 - STATIONARITY_MARGIN.  A grid over beta, with
(omega, alpha) fitted at each grid point, profiles the likelihood.
From every local minimum of the profile a run takes Newton steps where
the Hessian on the free moves is positive definite and Fisher-scoring
steps where it is not; steps stop short of every bound, and a run
continues along a bound it reaches.  The candidate with the highest
likelihood, the constant variance included, wins, and the fit names the
face it lies on.  The stopping rule is fixed here: a run stops once the
first-order conditions hold to ``_GTOL``, which is also when a fit is
converged, or once a step gains no more than rounding (``_ROUNDING``)
and was cut or followed another such step.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import cache

import numpy as np

from .exceptions import DegenerateSeries, InvalidParameters, SeriesTooShort

# alpha + beta is kept at or below one minus this margin during fitting.
STATIONARITY_MARGIN = 1e-6

MIN_FIT_LENGTH = 20
_BURN = 200  # warm-up steps that simulate_garch draws and discards


def _as_coef_tuple(value, name: str) -> tuple[float]:
    coefs = (float(value),) if np.isscalar(value) else tuple(float(v) for v in value)
    if len(coefs) != 1:
        raise InvalidParameters(f"only GARCH(1,1) is supported: {name} = {coefs}")
    if not np.isfinite(coefs[0]) or coefs[0] < 0:
        raise InvalidParameters(f"{name} must be finite and >= 0: {coefs[0]}")
    return coefs


@dataclass(frozen=True)
class GarchParams:
    """GARCH(1,1) variance recursion parameters (omega, alpha, beta).

    ``alpha`` and ``beta`` accept a scalar or a one-element sequence and
    are stored as 1-tuples; any other length raises ``InvalidParameters``.
    """

    omega: float
    alpha: tuple[float]
    beta: tuple[float]

    def __post_init__(self):
        if not (np.isfinite(self.omega) and self.omega > 0):
            raise InvalidParameters(f"omega must be finite and > 0, got {self.omega}")
        object.__setattr__(self, "alpha", _as_coef_tuple(self.alpha, "alpha"))
        object.__setattr__(self, "beta", _as_coef_tuple(self.beta, "beta"))

    @property
    def persistence(self) -> float:
        return self.alpha[0] + self.beta[0]

    @property
    def unconditional_variance(self) -> float:
        if not self.persistence < 1.0:
            raise InvalidParameters("unconditional variance requires persistence < 1")
        return self.omega / (1.0 - self.persistence)


@dataclass
class GarchFit:
    """Result of a maximum-likelihood fit on one innovation series.

    ``boundary`` names the face of the parameter space the fit lies on:
    ``"none"`` (interior), ``"alpha=0"``, ``"beta=0"``, ``"constant"``
    (alpha = beta = 0) or ``"alpha+beta=1"`` (alpha + beta at the
    stationarity bound 1 - STATIONARITY_MARGIN).  At alpha = 0, beta only
    shapes the decay of the pre-sample transient and is not identified.
    ``converged`` is true only when the first-order (KKT) conditions hold
    at ``params``.
    """

    params: GarchParams
    sigma2_path: np.ndarray
    loglik: float
    converged: bool
    iterations: int
    sigma2_init: float
    boundary: str = "none"


def _lagged(x: np.ndarray, first: float) -> np.ndarray:
    lag = np.empty_like(x)
    lag[0] = first
    lag[1:] = x[:-1]
    return lag


@cache
def _blocks(n: int) -> tuple[int, int, np.ndarray, np.ndarray]:
    """Block length b and block count m for an n-step recursion, and where
    ``_ar1_solver`` puts the powers of beta in its buffer: b zeros,
    beta**0 ... beta**(b-1), m zeros, then beta**(k*b + 1) for k < m.

    b is the largest divisor of n not above sqrt(n), unless that is below
    sqrt(n) / 2; then b = ceil(sqrt(n)) and the last block is padded with
    zeros.  Padding copies the input of every solve: at n = 512 it made an
    objective evaluation about 12% slower than b = 16 or 32 did.
    """
    root = math.isqrt(n)
    b = next((d for d in range(root, root // 2, -1) if n % d == 0), root + (root * root < n))
    m = -(-n // b)
    exponents = np.r_[np.zeros(b), np.arange(b), np.zeros(m), b * np.arange(m) + 1.0]
    filled = np.r_[np.zeros(b, bool), np.ones(b, bool), np.zeros(m, bool), np.ones(m, bool)]
    exponents.setflags(write=False)
    filled.setflags(write=False)
    return b, m, exponents, filled


def _ar1_solver(beta, n: int) -> Callable[..., np.ndarray]:
    """``solve(x, first=0.0)``: y[t] = x[t] + beta * y[t-1] over the n
    steps of the last axis of ``x``, with y[-1] = ``first``.  ``beta`` is
    a scalar or holds one value per leading row of ``x``.  ``solve`` may
    overwrite ``x``.

    The steps are cut into m blocks of b (``_blocks``), and the powers of
    beta are laid out once here: the b x b matrix of beta**(i-j), and the
    m x m matrix of beta times powers of beta**b.  A solve takes three
    products.  The first gives the end of every block solved from a zero
    start.  The second carries the ends from block to block, times beta;
    ``first`` enters as the end of block -1.  Each carried end is added to
    the next block's first step, and the third product solves every
    block.

    An overflow or an infinite input is multiplied by zeros in these
    products, so the steps before it can come out nan.  Only ``_ar1``
    repairs that, and only ``_ar1`` silences the overflow warnings.
    """
    b, m, exponents, filled = _blocks(n)
    beta = np.asarray(beta, dtype=float)
    rows = beta.shape
    powers = np.zeros(rows + exponents.shape)
    np.power(beta[..., None], exponents, out=powers, where=filled)
    # Both matrices are Toeplitz: each is a strided view of the buffer,
    # copied so that the products run in BLAS.
    size = powers.itemsize
    strides = powers.strides[:-1] + (-size, size)
    block = np.ndarray(rows + (b, b), buffer=powers, offset=b * size, strides=strides).copy()
    across = np.ndarray(rows + (m, m), buffer=powers, offset=(2 * b + m - 1) * size,
                        strides=strides).copy()
    start = powers[..., None, 2 * b + m:]
    last = block[..., b - 1:]
    pad = m * b - n
    blocks, series = rows + (-1, b), rows + (-1, m)

    def solve(x: np.ndarray, first: float = 0.0) -> np.ndarray:
        shape = x.shape
        if pad:
            x = np.concatenate([x, np.zeros(shape[:-1] + (pad,))], axis=-1)
        x = x.reshape(blocks)
        ends = (x @ last).reshape(series) @ across
        if first:
            ends += first * start
        x.reshape(ends.shape + (b,))[..., 0] += ends
        y = x @ block
        if pad:
            return y.reshape(shape[:-1] + (m * b,))[..., :n]
        return y.reshape(shape)

    return solve


def _ar1(x, beta, first: float = 0.0) -> np.ndarray:
    """y[t] = x[t] + beta * y[t-1] along the last axis of ``x``, with
    y[-1] = ``first``, as a new array; ``beta`` is a scalar or holds one
    value per leading row of ``x``.

    The blocked solve of ``_ar1_solver`` runs first.  Where its result is
    not finite, the recursion is run again step by step, so that an
    infinite step never turns the steps before it into nan.  Overflow
    raises no warning.
    """
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        y = _ar1_solver(beta, x.shape[-1])(x.copy(), first)
        if np.isfinite(y).all():
            return y
        beta = np.reshape(beta, np.shape(beta) + (1,) * (x.ndim - 1 - np.ndim(beta)))
        prev = np.full(x.shape[:-1], float(first))
        for t in range(x.shape[-1]):
            prev = x[..., t] + beta * prev
            y[..., t] = prev
    return y


def garch_filter(params: GarchParams, eps, sigma2_init: float) -> np.ndarray:
    """Run the variance recursion over an innovation series.

    Pre-sample squared innovations and variances are both set to
    ``sigma2_init`` (finite and > 0; ``garch_fit`` uses the sample
    variance).  The output is strictly positive for any valid parameters.
    """
    eps = np.asarray(eps, dtype=float).reshape(-1)
    if eps.shape[0] < 1:
        raise InvalidParameters("need at least one observation")
    if not (np.isfinite(sigma2_init) and sigma2_init > 0):
        raise InvalidParameters(f"sigma2_init must be finite and > 0, got {sigma2_init}")
    sigma2_init = float(sigma2_init)
    s2 = params.omega + params.alpha[0] * _lagged(eps * eps, sigma2_init)
    return _ar1(s2, params.beta[0], sigma2_init)


def garch_loglik(params: GarchParams, eps, sigma2_init: float) -> float:
    """Gaussian log-likelihood up to an additive constant, sign-flipped so
    that larger is better: ``-sum(log s2[t] + eps[t]**2 / s2[t])``, with
    ``s2`` the ``garch_filter`` path started from ``sigma2_init``."""
    eps = np.asarray(eps, dtype=float).reshape(-1)
    s2 = garch_filter(params, eps, sigma2_init)
    return float(-np.sum(np.log(s2) + eps * eps / s2))


def _nll_and_derivatives(theta, e2, e2_lag, sigma2_init):
    """Negated log-likelihood f, its gradient, its Fisher information and
    its Hessian in the natural parameters theta = (omega, alpha, beta).

    The sensitivity paths ds2/d(omega, alpha, beta) follow the variance
    recursion's AR(1) filter driven by 1, eps[t-1]**2 and s2[t-1], so one
    solve gives all three.  With u = ds2 / s2 and r = 1 - e2 / s2, the
    gradient is u @ r and the information is u @ u.T, the expected
    Hessian.  The Hessian adds the observed curvature: s2 is linear in
    omega and alpha, and its second derivatives in beta follow the same
    filter driven by the lagged sensitivity paths.  The three solves share
    one ``_ar1_solver``.  Returns ``(inf, None, None, None)`` where the
    path is not finite and positive.
    """
    omega, alpha, beta = theta
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        solve = _ar1_solver(beta, e2.shape[0])
        s2 = solve(omega + alpha * e2_lag, sigma2_init)
        inv = 1.0 / s2
        q = e2 * inv
        # a zero, negative or infinite s2 makes f nan or inf
        f = float(np.sum(np.log(s2) + q))
        if not math.isfinite(f):
            return np.inf, None, None, None
        drivers = np.empty((3, e2.shape[0]))
        drivers[0] = 1.0
        drivers[1] = e2_lag
        drivers[2, 0] = sigma2_init
        drivers[2, 1:] = s2[:-1]
        ds2 = solve(drivers)
        u = ds2 * inv
        r = 1.0 - q
        grad = u @ r
        info = u @ u.T
        # the second derivatives are driven by the lagged sensitivity paths
        drivers[:, 0] = 0.0
        drivers[:, 1:] = ds2[:, :-1]
        drivers[2] *= 2.0
        cross = (solve(drivers) * inv) @ r
        hess = (u * (1.0 - 2.0 * r)) @ u.T
        hess[2] += cross
        hess[:, 2] += cross
        hess[2, 2] -= cross[2]
        # a non-finite entry anywhere makes the sum nan or inf
        if not math.isfinite(grad.sum() + info.sum() + hess.sum()):
            return np.inf, None, None, None
    return f, grad, info, hess


# beta in steps of 0.2 up to 0.8, then 1 - beta even in log down to the
# stationarity bound: a grid even in log(1 - beta) throughout has no point
# between 0 and 0.78 and misses optima there.
_GRID_BETAS = np.r_[np.linspace(0.0, 0.8, 5),
                    1.0 - np.logspace(np.log10(0.2), np.log10(STATIONARITY_MARGIN), 12)[1:]]
# Projected scoring steps in (omega, alpha) that every grid row takes.
_GRID_STEPS = 4
# A step goes at most this fraction of the way to the nearest bound it
# heads for, so a run never lands on a face it did not start on: a full
# step can cross onto alpha = 0 and miss an interior optimum close to it.
# While consecutive steps stay cut by a bound the fraction moves towards
# one (0.5, 0.75, 0.875, ...), so a run heading for a face gets close in
# a few steps.
_FRACTION_TO_BOUNDARY = 0.5
_ARMIJO = 1e-4
_MAX_HALVINGS = 60
# f is a sum of n terms; a change below this share of |f| is rounding.
# A step that gains no more than rounding ends a run when it was cut (by
# a bound or by backtracking) or when the step before it gained no more
# either: near an optimum full Newton steps gain only rounding, and a run
# whose gradient rounding keeps above _GTOL would otherwise go on to
# _MAX_ITER.  One full step that gains only rounding does not stop a run:
# near beta = 1 on the alpha = 0 face the next steps still climb.
_ROUNDING = 16 * np.finfo(float).eps
# A run stops, and a fit is converged, once the gradient along the moves
# the bounds allow, in (log omega, alpha, beta), is below this.  Where f
# has curvature of order n there, a Newton step could still gain about
# _GTOL**2 / n: far below the rounding of f.
_GTOL = 1e-6
# Guards against an endless loop only; runs stop on the rules in _descend.
_MAX_ITER = 500
# A run this close to a bound is put on it: a variance path cannot tell
# alpha = 1e-10 from alpha = 0, and a run crawling to a bound in steps
# cut short of it would never move along it.
_SNAP = 1e-10
# theta this close to a bound is on it (alpha + beta = 1 - margin holds
# only to rounding).
_ON_BOUND = 1e-12


def _slack(theta) -> float:
    return (1.0 - STATIONARITY_MARGIN) - theta[1] - theta[2]


def _reach(theta, d) -> tuple[float, list[bool]]:
    """Largest t with theta + t * d feasible (omega > 0 included), and
    which of the bounds alpha >= 0, beta >= 0 and alpha + beta <=
    1 - STATIONARITY_MARGIN theta sits on while d would cross it."""
    omega, alpha, beta = theta
    reach = omega / -d[0] if d[0] < 0 else math.inf
    blocked = [False, False, False]
    for k, (dist, rate) in enumerate(((alpha, d[1]), (beta, d[2]),
                                      (_slack(theta), -d[1] - d[2]))):
        if rate < 0:
            if dist <= _ON_BOUND:
                blocked[k] = True
            else:
                reach = min(reach, dist / -rate)
    return reach, blocked


@cache
def _moves(held: tuple[bool, ...]) -> np.ndarray:
    """Columns spanning the moves that keep fixed what ``held`` holds:
    omega, or theta on the bound alpha >= 0, beta >= 0 or alpha + beta <=
    1 - STATIONARITY_MARGIN."""
    omega_held, alpha_held, beta_held, top_held = held
    keep = [not omega_held, not (alpha_held or top_held), not (beta_held or top_held)]
    cols = list(np.eye(3)[keep])
    if top_held and not (alpha_held or beta_held):
        cols.append(np.array([0.0, 1.0, -1.0]))
    moves = np.array(cols).reshape(-1, 3).T
    moves.setflags(write=False)
    return moves


def _direction(g, basis, info, hess) -> np.ndarray:
    """Descent direction in the span of ``basis``: Newton where ``hess``
    is positive definite there, else Fisher scoring."""
    gz = basis.T @ g
    h = basis.T @ hess @ basis
    try:
        np.linalg.cholesky(h)
        return -basis @ np.linalg.solve(h, gz)
    except np.linalg.LinAlgError:
        pass
    a = basis.T @ info @ basis
    try:
        return -basis @ np.linalg.solve(a, gz)
    except np.linalg.LinAlgError:
        return -basis @ (gz / np.maximum(np.diag(a), np.finfo(float).tiny))


def _snap(theta) -> np.ndarray:
    """theta moved onto every bound it is within ``_SNAP`` of (theta
    itself when there is none)."""
    near = [0.0 < x < _SNAP for x in theta[1:]]
    if not (any(near) or _ON_BOUND < _slack(theta) < _SNAP):
        return theta
    theta = theta.copy()
    theta[1:][near] = 0.0
    if _ON_BOUND < _slack(theta) < _SNAP:
        theta[2] = (1.0 - STATIONARITY_MARGIN) - theta[1]
    return theta


def _descend(objective, theta):
    """Minimize ``objective`` from ``theta``.

    Gradients and steps are measured in (log omega, alpha, beta).  Every
    iteration takes the Newton direction where the Hessian on the free
    moves is positive definite and the Fisher-scoring direction where it
    is not; where theta is on a bound the direction would cross, the
    direction is recomputed along that bound.  A step goes at most a
    fraction of the way to the nearest bound ahead and is halved until the
    Armijo condition holds.  A run that comes within ``_SNAP`` of a bound
    is put on it.  The run stops when the scaled gradient along the
    allowed moves is below ``_GTOL``; after a step that gains no more than
    rounding and was either cut (by a bound or by backtracking) or follows
    another such step; when no step decreases f; or at once where f is not
    finite at the start.  Returns ``(theta, f, grad, nit)``.
    """
    theta = np.asarray(theta, dtype=float)
    f, g, info, hess = objective(theta)
    if g is None:
        return theta, f, g, 0
    stalled = stop = False
    nit = cuts = 0
    while nit < _MAX_ITER:
        scale = np.array([theta[0], 1.0, 1.0])
        held = (False,) * 4
        while True:
            basis = _moves(held) * scale[:, None]
            if stop or basis.shape[1] == 0 or np.max(np.abs(basis.T @ g)) < _GTOL:
                return theta, f, g, nit
            d = _direction(g, basis, info, hess)
            reach, blocked = _reach(theta, d)
            # omega > 0 is open: omega is held once it heads for 0 in steps
            # cut by that bound while its scaled gradient is below _GTOL,
            # so that the other coordinates are not held back with it.
            omega_cut = d[0] < 0 and _FRACTION_TO_BOUNDARY * theta[0] < -d[0]
            blocked = (omega_cut and abs(theta[0] * g[0]) < _GTOL, *blocked)
            if not any(b and not h for b, h in zip(blocked, held)):
                break
            held = tuple(b or h for b, h in zip(blocked, held))
        slope = g @ d
        if slope >= 0:
            break
        cuts = cuts + 1 if _FRACTION_TO_BOUNDARY * reach < 1.0 else 0
        t = min(1.0, (1.0 - _FRACTION_TO_BOUNDARY ** max(cuts, 1)) * reach)
        full = t == 1.0
        # Below rounding, a change of f carries no information: there a
        # step is accepted when the directional derivative shrinks, so a
        # run whose gradient is still above _GTOL goes on.
        noise = _ROUNDING * abs(f)
        for _ in range(_MAX_HALVINGS):
            f_new, g_new, info_new, hess_new = objective(theta + t * d)
            if f_new <= f + _ARMIJO * t * slope or (
                    f_new <= f + noise and abs(g_new @ d) < -slope):
                break
            t *= 0.5
            full = False
        else:
            break
        nit += 1
        was_stalled, stalled = stalled, f - f_new <= noise
        stop = stalled and (was_stalled or not full)
        theta = theta + t * d
        f, g, info, hess = f_new, g_new, info_new, hess_new
        snapped = _snap(theta)
        if snapped is not theta:
            theta = snapped
            f, g, info, hess = objective(theta)
            stop = False
    return theta, f, g, nit


# Bytes of the two driver paths of the beta grid rows evaluated at once:
# 16 rows up to n = 512, then fewer, so that the grid's working set does
# not grow past a few such blocks with n.
_GRID_BLOCK_BYTES = 128 * 1024


# where squares overflow or underflow, f is nan or inf on every row and no
# row is a start
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _grid_starts(e2, e2_lag, sigma2_init) -> np.ndarray:
    """Rows (omega, alpha, beta) of the beta grid ``_GRID_BETAS`` whose
    negated log-likelihood, profiled over (omega, alpha), is below the
    previous row's and no larger than the next row's.

    The rows are profiled in blocks (``_grid_profile``) whose driver paths
    fit ``_GRID_BLOCK_BYTES``.  A row's result comes from its own products
    and row sums, so it does not depend on the block it is in.
    """
    rows = max(1, _GRID_BLOCK_BYTES // (2 * e2.itemsize * e2.shape[0]))
    theta, f = map(np.concatenate, zip(*(
        _grid_profile(_GRID_BETAS[i:i + rows], e2, e2_lag, sigma2_init)
        for i in range(0, _GRID_BETAS.shape[0], rows))))
    padded = np.r_[np.inf, f, np.inf]
    local = (f < padded[:-2]) & (f <= padded[2:])
    return np.column_stack([theta, _GRID_BETAS])[local]


def _grid_profile(betas, e2, e2_lag, sigma2_init) -> tuple[np.ndarray, np.ndarray]:
    """(omega, alpha) fitted at each beta of ``betas``, and the negated
    log-likelihood there.

    At a fixed beta, s2[t] = omega * c[t] + alpha * h[t] + beta**(t+1) *
    sigma2_init, with c[t] = (1 - beta**(t+1)) / (1 - beta) and h the
    lagged squares run through the recursion; one ``_ar1_solver`` solve
    of every row at once gives both.  All rows take ``_GRID_STEPS``
    Fisher-scoring steps at once; a step that would take alpha past 0 or
    1 - STATIONARITY_MARGIN - beta stops it there, and omega takes the
    best step of the quadratic model at that alpha.
    """
    paths = np.empty((betas.shape[0], 2, e2.shape[0]))
    paths[:, 0] = 1.0
    paths[:, 1] = e2_lag
    paths = _ar1_solver(betas, e2.shape[0])(paths)
    # beta**(t+1) = 1 - (1 - beta) * c[t]: the presample term shifts omega
    shift = np.column_stack([(1.0 - betas) * sigma2_init, np.zeros_like(betas)])
    top = (1.0 - STATIONARITY_MARGIN) - betas
    theta = np.empty((betas.shape[0], 2))
    theta[:, 1] = 0.5 * top
    theta[:, 0] = sigma2_init * (1.0 - theta[:, 1] - betas)
    for _ in range(_GRID_STEPS):
        inv = 1.0 / (((theta - shift)[:, None, :] @ paths)[:, 0] + sigma2_init)
        u = paths * inv[:, None, :]
        grad = (u @ (1.0 - e2 * inv)[:, :, None])[:, :, 0]
        info = u @ u.transpose(0, 2, 1)
        det = info[:, 0, 0] * info[:, 1, 1] - info[:, 0, 1] ** 2
        step = np.divide(info[:, 0, 1] * grad[:, 0] - info[:, 0, 0] * grad[:, 1], det,
                         out=np.zeros_like(det), where=det > 0)
        alpha = np.clip(theta[:, 1] + step, 0.0, top)
        omega = theta[:, 0] - (grad[:, 0] + info[:, 0, 1] * (alpha - theta[:, 1])) / info[:, 0, 0]
        theta[:, 0] = np.maximum(omega, _FRACTION_TO_BOUNDARY * theta[:, 0])
        theta[:, 1] = alpha
    s2 = ((theta - shift)[:, None, :] @ paths)[:, 0] + sigma2_init
    return theta, np.sum(np.log(s2) + e2 / s2, axis=1)


def _kkt_holds(theta, g) -> bool:
    """First-order optimality over omega > 0, alpha, beta >= 0 and
    alpha + beta <= 1 - STATIONARITY_MARGIN, to ``_GTOL`` in the scaled
    gradient: zero gradient along every coordinate off its bounds, and
    multipliers of the right sign on the bounds that are active."""
    g_ab = g[1:]
    positive = theta[1:] > 0
    mu = -float(np.mean(g_ab[positive])) if _slack(theta) <= _ON_BOUND else 0.0
    r = g_ab + mu
    return bool(abs(theta[0] * g[0]) < _GTOL and mu > -_GTOL
                and np.all(np.abs(r[positive]) < _GTOL) and np.all(r[~positive] > -_GTOL))


def _boundary(theta) -> str:
    omega, alpha, beta = theta
    if alpha == 0.0:
        return "constant" if beta == 0.0 else "alpha=0"
    if beta == 0.0:
        return "beta=0"
    return "alpha+beta=1" if _slack(theta) <= _ON_BOUND else "none"


def garch_fit(eps) -> GarchFit:
    """Fit a GARCH(1,1) model by constrained maximum likelihood.

    The likelihood is maximized over omega > 0, alpha, beta >= 0 and
    alpha + beta <= 1 - STATIONARITY_MARGIN in the natural parameters.
    Candidates:

    - the constant variance omega = mean(eps**2);
    - a run of ``_descend`` over (omega, alpha, beta) from every local
      minimum of the likelihood profiled over a beta grid
      (``_grid_starts``).  Every grid row includes alpha = 0 and the
      first row is beta = 0, so both faces are searched on every fit.

    The candidate with the highest likelihood wins, and ``boundary``
    names its face: ``"none"``, ``"alpha=0"``, ``"beta=0"``,
    ``"constant"`` or ``"alpha+beta=1"``.  ``converged`` is true only
    when the first-order (KKT) conditions hold at the reported point to
    ``_GTOL`` in the gradient scaled to (log omega, alpha, beta).
    ``iterations`` counts the steps of every run.

    Raises
    ------
    SeriesTooShort
        If fewer than 20 observations are supplied.
    DegenerateSeries
        If the series has zero variance, or no candidate has a finite
        likelihood (its squares overflow or underflow).
    """
    eps = np.asarray(eps, dtype=float).reshape(-1)
    n = eps.shape[0]
    if n < MIN_FIT_LENGTH:
        raise SeriesTooShort(f"need at least {MIN_FIT_LENGTH} observations, got {n}")
    if not np.all(np.isfinite(eps)):
        raise InvalidParameters("series contains non-finite values")
    # squares of finite values can overflow; no candidate then has a
    # finite likelihood, which is reported below
    with np.errstate(over="ignore"):
        sigma2_init = float(np.var(eps))
        e2 = eps * eps
    if sigma2_init <= 0 or np.all(eps == eps[0]):
        raise DegenerateSeries("series has zero variance")
    e2_lag = _lagged(e2, sigma2_init)

    def objective(theta):
        return _nll_and_derivatives(theta, e2, e2_lag, sigma2_init)

    constant = np.array([np.mean(e2), 0.0, 0.0])
    runs = [(constant, *objective(constant)[:2], 0)]
    runs += [_descend(objective, start)
             for start in _grid_starts(e2, e2_lag, sigma2_init)]

    theta, f, g, _ = min(runs, key=lambda run: run[1])
    if not math.isfinite(f):
        raise DegenerateSeries("the likelihood is not finite at any candidate")
    params = GarchParams(*(float(x) for x in theta))
    s2 = garch_filter(params, eps, sigma2_init)
    return GarchFit(
        params=params,
        sigma2_path=s2,
        loglik=float(-np.sum(np.log(s2) + eps * eps / s2)),
        converged=_kkt_holds(theta, g),
        iterations=sum(run[3] for run in runs),
        sigma2_init=sigma2_init,
        boundary=_boundary(theta),
    )


def simulate_garch(params: GarchParams, n: int, seed=None
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Draw an innovation series and its variance path from the recursion.

    Gaussian shocks; the pre-sample squared innovation and variance are
    both the unconditional variance, and the first ``_BURN`` steps are
    discarded.  Returns ``(eps, sigma2)``, each of length ``n``.
    """
    rng = np.random.default_rng(seed)
    total = n + _BURN
    z = rng.standard_normal(total)
    omega, alpha, beta = params.omega, params.alpha[0], params.beta[0]
    e2_prev = s2_prev = params.unconditional_variance
    eps = np.empty(total)
    s2 = np.empty(total)
    for t in range(total):
        s2_prev = omega + alpha * e2_prev + beta * s2_prev
        s2[t] = s2_prev
        eps[t] = np.sqrt(s2_prev) * z[t]
        e2_prev = eps[t] * eps[t]
    return eps[_BURN:], s2[_BURN:]
