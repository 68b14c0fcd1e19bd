"""End-to-end estimators for time-varying covariance matrices.

``fit_model(panel, "scgarch", config)`` runs the two-step pipeline:
(1) filter each variable's regression on its predecessors to get
time-varying coefficient rows of T_t and mutually uncorrelated
innovations; (2) fit a GARCH(1,1) model to each innovation series, whose
variance paths are D_t.  The covariance path is assembled per time step
as ``inv(T_t) @ diag(D_t) @ inv(T_t).T``, positive definite by
construction, as T_t is unit lower triangular and D_t > 0; neither is
checked.  ``fit_model(panel, "cgarch")`` is the constant-coefficient
baseline (static T from the full-sample regressions, GARCH step
unchanged).  Either model takes the variables in
panel order unless ``fit_model`` is given an ``ordering``, and
``order_by_bic`` picks the ordering of either model by BIC and returns
its fit.

A column's innovations and GARCH fit depend only on which variables
precede it, so ``_fit_columns`` fits (series, predecessor set) pairs,
the scgarch regressions of one set size in one batched Kalman pass (those
of sets of one in the pass of sets of two), and ``_assemble`` builds the
fit of an ordering from its p pairs.
``fit_model`` fits the pairs of one ordering; the search fits those of
every ordering or of a beam over predecessor sets, finds the best ordering
they allow in one forward pass over set sizes and assembles it: it runs
the pipeline once.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass

import numpy as np

from .exceptions import (
    DimensionMismatch,
    NonPositiveDiagonal,
    PipelineError,
    ScgarchError,
    TooManyPermutations,
)
from .garch import GarchFit, garch_fit
from .kalman import _best_candidate, _checked_grid, _gain_filter
# Not called here: perfbench/spans.py wraps both names on this module.
from .kalman import filter_regression, tune_state_noise  # noqa: F401
from .mcd import mcd_decompose, mcd_reconstruct

# Floor on the regression-residual variance, relative to the column's mean
# square, so degenerate (near-collinear) columns do not produce a zero
# measurement variance and a fit does not depend on the data's units.
_MEAS_VAR_FLOOR = 1e-12


@dataclass
class TimeSeriesPanel:
    """An n x p panel of mean-zero observations with unique column labels,
    stripped of surrounding whitespace as the CSV reader strips them."""

    values: np.ndarray
    labels: list[str] = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2:
            raise DimensionMismatch(f"panel must be 2-d, got shape {self.values.shape}")
        n, p = self.values.shape
        if p < 1 or n <= p:
            raise DimensionMismatch(f"need n > p >= 1, got n={n}, p={p}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("panel contains missing or non-finite values")
        if self.labels is None:
            self.labels = [f"y{j + 1}" for j in range(p)]
        else:
            self.labels = [str(l).strip() for l in self.labels]
        if len(self.labels) != p or len(set(self.labels)) != p:
            raise DimensionMismatch("labels must be unique and match the panel width")

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def p(self) -> int:
        return self.values.shape[1]


@dataclass
class CovariancePath:
    """A sequence of covariance matrices, one per time step."""

    sigmas: np.ndarray  # (n, p, p)

    def __post_init__(self):
        s = np.asarray(self.sigmas, dtype=float)
        if s.ndim != 3 or s.shape[1] != s.shape[2]:
            raise DimensionMismatch(f"expected (n, p, p) array, got {s.shape}")
        self.sigmas = s

    @property
    def n(self) -> int:
        return self.sigmas.shape[0]

    @property
    def p(self) -> int:
        return self.sigmas.shape[1]

    def correlations(self) -> np.ndarray:
        """Per-time correlation matrices, shape (n, p, p), with an exact
        unit diagonal; bitwise symmetric where ``sigmas`` is."""
        d = np.diagonal(self.sigmas, axis1=1, axis2=2)
        if np.any(d <= 0):
            raise NonPositiveDiagonal("covariance path has non-positive variances")
        inv_sd = 1.0 / np.sqrt(d)
        # One product per entry of the symmetric scale matrix, so entries
        # (i, j) and (j, i) round alike; the scale matrix holds the result.
        corr = inv_sd[:, :, None] * inv_sd[:, None, :]
        corr *= self.sigmas
        idx = np.arange(self.p)
        corr[:, idx, idx] = 1.0
        return corr


# Log-spaced candidates for predictive-likelihood tuning of the
# coefficient random-walk noise.
DEFAULT_TUNE_GRID = tuple(float(q) for q in np.logspace(-6, -1, 6))


@dataclass(frozen=True)
class ScgarchConfig:
    """Settings every scgarch column fit reads.

    Each regression has the prior N(0, kappa * I) and the random-walk
    noise q * I, with q taken from the candidates ``state_noise``, stored
    in ascending order: one candidate fixes the noise, several choose it
    per regression by predictive likelihood (``DEFAULT_TUNE_GRID`` is the
    tuned setting).  ``two_pass`` re-runs the coefficient filter once with
    the fitted conditional variances as per-step measurement noise.  A
    negative or non-finite kappa or candidate, no candidate, or
    ``kappa = 0`` with a zero candidate raises ValueError; a bare number
    for ``state_noise`` raises TypeError.  The GARCH fits' stopping rule
    is fixed in ``garch``.
    """

    kappa: float = 10.0
    state_noise: tuple[float, ...] = (1e-4,)
    two_pass: bool = False

    def __post_init__(self):
        if not (np.isfinite(self.kappa) and self.kappa >= 0):
            raise ValueError(f"kappa must be finite and >= 0, got {self.kappa}")
        grid = tuple(_checked_grid(self.state_noise))
        if self.kappa == 0 and grid[0] == 0:
            raise ValueError("kappa = 0 needs every state-noise candidate > 0")
        object.__setattr__(self, "state_noise", grid)


@dataclass
class ScgarchFitResult:
    """Everything produced by one pipeline fit.

    ``t_path`` (n, p, p), unit lower triangular by construction,
    ``innovations`` and ``garch_fits``, whose ``sigma2_path``s are the
    variances D_t >= omega > 0, are in processing order (the variables
    taken in ``ordering``); ``cov_path`` is in the original variable order.
    """

    model: str
    ordering: tuple[int, ...]
    t_path: np.ndarray
    innovations: np.ndarray
    garch_fits: list[GarchFit]
    cov_path: CovariancePath
    total_loglik: float


def check_permutation(ordering, p: int) -> tuple[int, ...]:
    try:
        perm = tuple(map(operator.index, ordering))
    except TypeError as exc:
        raise DimensionMismatch(f"ordering entries must be integers: {exc}") from None
    if sorted(perm) != list(range(p)):
        raise DimensionMismatch(f"{perm} is not a permutation of 0..{p - 1}")
    return perm


# Squares that overflow give an infinite variance, which the Kalman pass
# reports as a typed failure.
@np.errstate(over="ignore")
def _ols_residual_variance(y: np.ndarray, x: np.ndarray) -> float:
    phi = np.linalg.lstsq(x, y, rcond=None)[0]
    resid = y - x @ phi
    mv = float(np.mean(resid * resid))
    # ``tiny`` keeps an all-zero column's variance positive.
    return max(mv, _MEAS_VAR_FLOOR * float(np.mean(y * y)), np.finfo(float).tiny)


def _fit_garch_column(eps: np.ndarray, series: int) -> GarchFit:
    try:
        return garch_fit(eps)
    except ScgarchError as exc:
        raise PipelineError("garch", series, exc) from exc


MIN_FIT_PANEL_LENGTH = 50
MODELS = ("scgarch", "cgarch")


def _check(panel: TimeSeriesPanel, model: str):
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}; expected one of {list(MODELS)}")
    if panel.n < MIN_FIT_PANEL_LENGTH:
        raise DimensionMismatch(
            f"need at least {MIN_FIT_PANEL_LENGTH} observations, got {panel.n}"
        )


def _ordering_pairs(perm) -> list[tuple[int, frozenset]]:
    return [(j, frozenset(perm[:k])) for k, j in enumerate(perm)]


def _fit_columns(y: np.ndarray, model: str, config: ScgarchConfig, pairs
                 ) -> dict[tuple[int, frozenset], tuple]:
    """Fit column j of ``y`` given that the columns in the frozenset
    ``preds`` precede it, for each (j, preds) in ``pairs``.

    Returns ``{(j, preds): (coefs, innovations, garch_fit)}``: the
    coefficients of column j on its predecessors in ascending column index
    (an (n, |preds|) filtered path for scgarch, the static (|preds|,) row
    for cgarch, ``None`` without predecessors), column j's (n,)
    innovations and their GARCH(1,1) fit: all ``_assemble`` needs.

    A column's fit depends on the set, not on the order of its
    predecessors (isotropic prior and state noise, order-free OLS
    measurement variance, set-determined static regression), so each
    distinct pair is fitted once.  The scgarch regressions of one set size
    are filtered together (``_regression_columns``), those of sets of one
    with those of sets of two when there are both: padding one regressor
    changes no bit (see ``kalman._gain_filter``), so a p = 3 fit makes one
    Kalman pass.  Padding larger sets would change last bits and multiply
    the work of a wide search, so each keeps its own pass.  A cgarch row is
    the last row of the modified Cholesky factor of the full-sample second
    moment of the block (``_static_column``).  A failure names column
    j + 1.
    """
    batches: dict[int, list] = {}
    for pair in dict.fromkeys(pairs):
        batches.setdefault(len(pair[1]), []).append(pair)
    if model == "scgarch" and 1 in batches and 2 in batches:
        batches[2] = batches.pop(1) + batches[2]
    with np.errstate(over="ignore"):  # an overflow fails the static MCD check
        second_moment = (y.T @ y) / y.shape[0] if model == "cgarch" else None
    fitted = {}
    for size, group in sorted(batches.items()):
        if size == 0:
            columns = [(None, y[:, j], _fit_garch_column(y[:, j], j + 1))
                       for j, _ in group]
        elif model == "cgarch":
            columns = [_static_column(y, second_moment, j, preds)
                       for j, preds in group]
        else:
            columns = _regression_columns(y, group, config)
        fitted.update(zip(group, columns))
    return fitted


def _static_column(y, second_moment, j: int, preds: frozenset):
    block = sorted(preds) + [j]
    try:
        t, _ = mcd_decompose(second_moment[np.ix_(block, block)])
    except ScgarchError as exc:
        raise PipelineError("static-mcd", j + 1, exc) from exc
    # The product with the whole block factor, not with its last row alone,
    # gives the same bits as the product with the full-panel factor.
    eps = (y[:, block] @ t.T)[:, -1]
    return -t[-1, :-1], eps, _fit_garch_column(eps, j + 1)


def _regression_columns(y: np.ndarray, pairs, config: ScgarchConfig) -> list[tuple]:
    """Scgarch fits of (j, preds) pairs filtered in one batch.

    Prior N(0, kappa * I); measurement variance the full-sample OLS
    residual variance of column j on its predecessors.  Each pair's
    regressors are padded with zero columns to the widest set in the
    batch, and its coefficient path is cut back to its own set; the batch
    mixes only sets of one and two, whose padding is exact.  One kernel pass
    filters every pair at every candidate of ``config.state_noise``
    (B = pairs x candidates); each pair keeps its best candidate by the
    rule of ``tune_state_noise``, the only one when there is one.  With
    ``two_pass`` a second pass (B = pairs) re-filters each pair at its
    noise with its fitted variance path.  Only the pass whose innovations
    are returned stores coefficient paths, and none stores covariance
    paths.
    """
    targets = [j for j, _ in pairs]
    preds = [sorted(s) for _, s in pairs]
    eye = np.eye(max(map(len, preds)))
    grid = config.state_noise

    # A pair whose every candidate overflows has no best candidate below.
    @np.errstate(over="ignore", invalid="ignore")
    def filter_pass(yb, xb, q, meas_var, keep_phi):
        # ScgarchConfig makes kappa + q > 0: the kernel's t=0 check cannot fail.
        return _gain_filter(yb, xb, np.zeros(len(eye)), config.kappa * eye, q,
                            meas_var, keep_phi)[:3]

    n, g = y.shape[0], len(grid)
    yb = y[:, targets]
    xb = np.zeros((n, len(pairs), len(eye)))
    for i, idx in enumerate(preds):
        xb[:, i, :len(idx)] = y[:, idx]
    meas_var = np.broadcast_to(
        [_ols_residual_variance(y[:, j], y[:, idx]) for j, idx in zip(targets, preds)],
        (n, len(pairs)))
    innovations, loglik, phi_path = filter_pass(
        np.repeat(yb, g, axis=1), np.repeat(xb, g, axis=1),
        np.tile(np.multiply.outer(grid, eye), (len(pairs), 1, 1)),
        np.repeat(meas_var, g, axis=1), not config.two_pass,
    )
    best = [_best_candidate(row) for row in loglik.reshape(len(pairs), g)]
    if None in best:
        raise PipelineError("kalman", targets[best.index(None)] + 1, ScgarchError(
            "no state-noise candidate gives a finite predictive log-likelihood"))
    # Copy out the chosen candidates, so that what is returned does not
    # hold on to the whole grid pass.
    chosen = [i * g + b for i, b in enumerate(best)]
    innovations = innovations[:, chosen]
    fits = [_fit_garch_column(innovations[:, i], j + 1)
            for i, j in enumerate(targets)]
    if config.two_pass:
        innovations, _, phi_path = filter_pass(
            yb, xb, np.multiply.outer([grid[b] for b in best], eye),
            np.column_stack([f.sigma2_path for f in fits]), True,
        )
        fits = [_fit_garch_column(innovations[:, i], j + 1)
                for i, j in enumerate(targets)]
    else:
        phi_path = phi_path[:, chosen]
    return [(phi_path[:, i, :len(idx)], innovations[:, i], fit)
            for i, (idx, fit) in enumerate(zip(preds, fits))]


def _assemble(panel: TimeSeriesPanel, model: str, perm: tuple[int, ...],
              fitted: dict) -> ScgarchFitResult:
    """The fit of ``model`` in the order ``perm`` from column fits
    ``fitted`` that hold its pairs: the coefficients of its k-th variable
    go into row k of T, at the ranks of its predecessors in ``perm``."""
    n, p = panel.values.shape
    pairs = _ordering_pairs(perm)
    rank = np.argsort(perm)
    t_path = np.broadcast_to(np.eye(p), (n, p, p)).copy()
    for k, pair in enumerate(pairs[1:], start=1):
        t_path[:, k, rank[sorted(pair[1])]] = -fitted[pair][0]
    innovations = np.column_stack([fitted[pair][1] for pair in pairs])
    fits = [fitted[pair][2] for pair in pairs]
    sigma = mcd_reconstruct(t_path, np.column_stack([f.sigma2_path for f in fits]))
    if perm != tuple(range(p)):  # one C-contiguous copy in the panel's order
        sigma = sigma.reshape(n, p * p).take(rank[:, None] * p + rank, axis=1)
    return ScgarchFitResult(
        model=model,
        ordering=perm,
        t_path=t_path,
        innovations=innovations,
        garch_fits=fits,
        cov_path=CovariancePath(sigma),
        total_loglik=float(sum(f.loglik for f in fits)),
    )


def fit_model(panel: TimeSeriesPanel, model: str, config: ScgarchConfig | None = None,
              ordering: tuple[int, ...] | None = None) -> ScgarchFitResult:
    """Fit ``model`` ("scgarch" or "cgarch") with the variables taken in
    ``ordering``, a permutation of the panel's columns (panel order by
    default); covariances are reported in the panel's order.

    The k-th variable of the ordering is fitted given the set of the k
    before it, by the ordering search's column fit and assembly.  The
    cgarch fit reads no ``config``.
    """
    _check(panel, model)
    config = config or ScgarchConfig()
    perm = (check_permutation(ordering, panel.p)
            if ordering is not None else tuple(range(panel.p)))
    fitted = _fit_columns(panel.values, model, config, _ordering_pairs(perm))
    return _assemble(panel, model, perm, fitted)


def bic(total_loglik: float, n: int, p: int) -> float:
    """Bayesian information criterion with k = 3p static parameters
    (one GARCH triple per series; latent coefficient states not counted)."""
    return -2.0 * total_loglik + 3.0 * p * np.log(n)


EXHAUSTIVE_LIMIT = 8
# Predecessor sets the beam search keeps per set size.
BEAM_WIDTH = 16


def order_by_bic(panel: TimeSeriesPanel, config: ScgarchConfig | None = None, *,
                 model: str = "scgarch", mode: str = "exhaustive") -> ScgarchFitResult:
    """Fit ``model`` in the variable ordering minimizing its BIC.

    All candidate orderings share the same parameter count, so the ranking
    reduces to total log-likelihood; BIC is still the reported criterion.
    A series' log-likelihood depends only on the set of its predecessors,
    so both modes run one forward program over predecessor sets (the order
    DP of exact Bayesian-network structure learning): set size by set
    size, each set S | {j} reached from a kept set S keeps the best total
    ``g(S) + loglik(j, S)`` over its fitted orderings and the prefix that
    gives it, among exactly equal totals the lexicographically smallest.
    Exhaustive mode keeps every set, finding the best of all p! orderings;
    it fits all p * 2**(p-1) pairs (1,024 at p = 8) up front in one
    ``_fit_columns`` call, and for p above ``EXHAUSTIVE_LIMIT`` = 8 it
    raises TooManyPermutations before any fit.  Beam mode keeps the
    ``BEAM_WIDTH`` best sets of each size, ties broken by the sorted set,
    and fits the pairs (j, S) of the kept sets with one ``_fit_columns``
    call per size (all below p = 6, 392 pairs at p = 8); it draws no
    random numbers.

    Returns the fit in the prefix kept for the full set, assembled from
    the search's column fits: bit for bit the fit ``fit_model`` makes in it.
    """
    _check(panel, model)
    config = config or ScgarchConfig()
    p = panel.p
    if mode == "exhaustive":
        if p > EXHAUSTIVE_LIMIT:
            raise TooManyPermutations(
                f"p={p} exceeds the exhaustive limit {EXHAUSTIVE_LIMIT}; "
                "use --ordering bic-beam"
            )
        width = None
        fitted = _fit_columns(panel.values, model, config, [
            (j, frozenset(s)) for size in range(p)
            for s in itertools.combinations(range(p), size)
            for j in range(p) if j not in s])
    elif mode == "beam":
        width, fitted = BEAM_WIDTH, {}
    else:
        raise ValueError(f"unknown ordering mode {mode!r}")
    # best[S] = (-g(S), prefix): the smaller key is the better prefix of S.
    beam, best = [frozenset()], {frozenset(): (0.0, ())}
    for _ in range(p):
        pairs = [(j, placed) for placed in beam for j in range(p) if j not in placed]
        if mode == "beam":
            fitted.update(_fit_columns(panel.values, model, config, pairs))
        reached = {}
        for j, placed in pairs:
            neg_total, prefix = best[placed]
            key = (neg_total - fitted[(j, placed)][2].loglik, prefix + (j,))
            reached[placed | {j}] = min(key, reached.get(placed | {j}, key))
        beam = sorted(reached, key=lambda s: (reached[s][0], sorted(s)))[:width]
        best = reached
    return _assemble(panel, model, best[frozenset(range(p))][1], fitted)
