"""End-to-end estimators for time-varying covariance matrices.

``fit_scgarch`` runs the two-step pipeline: (1) filter each variable's
regression on its predecessors to get time-varying coefficient rows and
mutually uncorrelated innovations; (2) fit a GARCH(1,1) model to each
innovation series.  The covariance path is assembled per time step as
``inv(T_t) @ diag(D_t) @ inv(T_t).T``, positive definite by construction.

``fit_cgarch`` is the constant-coefficient baseline (static T from the
full-sample regressions, GARCH step unchanged).  Either fit takes the
variables in panel order; ``fit_model(panel, model, config, ordering)``
takes them in any order, and ``order_by_bic`` picks the ordering of
either model by BIC and returns its fit.

A column's innovations and GARCH fit depend only on which variables
precede it, so ``_fit_columns`` fits (series, predecessor set) pairs,
the scgarch regressions of one set size in one batched Kalman pass, and
``_assemble`` builds the fit of an ordering from its p pairs.
``fit_model`` (behind ``fit_scgarch`` and ``fit_cgarch``) fits the pairs
of one ordering; the search fits the pairs of all its candidates and
assembles the one it picks, so a searched fit runs the pipeline once.
"""

from __future__ import annotations

import itertools
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

# Floor applied to the regression-residual variance so degenerate
# (near-collinear) columns do not produce a zero measurement variance.
_MEAS_VAR_FLOOR = 1e-12


@dataclass
class TimeSeriesPanel:
    """An n x p panel of mean-zero observations with unique column labels."""

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
            self.labels = [str(l) for l in self.labels]
        if len(self.labels) != p or len(set(self.labels)) != p:
            raise DimensionMismatch("labels must be unique and match the panel width")

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def p(self) -> int:
        return self.values.shape[1]


@dataclass
class CholeskyPath:
    """Per-time unit-lower-triangular factors and innovation variances."""

    t_path: np.ndarray  # (n, p, p)
    d_path: np.ndarray  # (n, p)

    def __post_init__(self):
        t, d = np.asarray(self.t_path, float), np.asarray(self.d_path, float)
        if t.ndim != 3 or t.shape[1] != t.shape[2] or d.shape != t.shape[:2]:
            raise DimensionMismatch(f"inconsistent path shapes {t.shape}, {d.shape}")
        p = t.shape[1]
        diag = t[:, np.arange(p), np.arange(p)]
        if not np.array_equal(diag, np.ones_like(diag)):
            raise DimensionMismatch("t_path diagonals must be exactly 1")
        if np.any(t[:, np.triu_indices(p, 1)[0], np.triu_indices(p, 1)[1]] != 0):
            raise DimensionMismatch("t_path must be lower triangular")
        if np.any(d <= 0):
            raise NonPositiveDiagonal("d_path must be strictly positive")
        self.t_path, self.d_path = t, d

    @property
    def n(self) -> int:
        return self.t_path.shape[0]

    @property
    def p(self) -> int:
        return self.t_path.shape[1]


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
        """Per-time correlation matrices, shape (n, p, p)."""
        d = np.diagonal(self.sigmas, axis1=1, axis2=2)
        if np.any(d <= 0):
            raise NonPositiveDiagonal("covariance path has non-positive variances")
        inv_sd = 1.0 / np.sqrt(d)
        corr = self.sigmas * inv_sd[:, :, None] * inv_sd[:, None, :]
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

    ``cholesky``, ``innovations`` and ``garch_fits`` are in processing
    order (the variables taken in ``ordering``); ``cov_path`` is reported
    in the original variable order.
    """

    model: str
    ordering: tuple[int, ...]
    cholesky: CholeskyPath
    innovations: np.ndarray
    garch_fits: list[GarchFit]
    cov_path: CovariancePath
    total_loglik: float


def check_permutation(ordering, p: int) -> tuple[int, ...]:
    perm = tuple(int(k) for k in ordering)
    if sorted(perm) != list(range(p)):
        raise DimensionMismatch(f"{perm} is not a permutation of 0..{p - 1}")
    return perm


def _ols_residual_variance(y: np.ndarray, x: np.ndarray) -> float:
    phi = np.linalg.lstsq(x, y, rcond=None)[0]
    resid = y - x @ phi
    mv = float(np.mean(resid * resid))
    return max(mv, _MEAS_VAR_FLOOR * float(np.mean(y * y)), _MEAS_VAR_FLOOR)


def _fit_garch_column(eps: np.ndarray, series: int) -> GarchFit:
    try:
        return garch_fit(eps)
    except ScgarchError as exc:
        raise PipelineError("garch", series, exc) from exc


MIN_FIT_PANEL_LENGTH = 50
_MODELS = ("cgarch", "scgarch")


def _check(panel: TimeSeriesPanel, model: str):
    if model not in _MODELS:
        raise ValueError(f"unknown model {model!r}; expected one of {list(_MODELS)}")
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
    are filtered together (``_regression_columns``); a cgarch row is the
    last row of the modified Cholesky factor of the full-sample second
    moment of the block (``_static_column``).  A failure names column
    j + 1.
    """
    by_size: dict[int, list] = {}
    for pair in dict.fromkeys(pairs):
        by_size.setdefault(len(pair[1]), []).append(pair)
    second_moment = (y.T @ y) / y.shape[0] if model == "cgarch" else None
    fitted = {}
    for size, group in sorted(by_size.items()):
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
    """Scgarch fits of (j, preds) pairs that share one set size.

    Prior N(0, kappa * I); measurement variance the full-sample OLS
    residual variance of column j on its predecessors.  One kernel pass
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
    eye = np.eye(len(preds[0]))
    grid = config.state_noise

    def filter_pass(yb, xb, q, meas_var, keep_phi):
        try:
            return _gain_filter(yb, xb, np.zeros(len(eye)), config.kappa * eye, q,
                                meas_var, keep_phi)[:3]
        except ScgarchError as exc:
            # Every pair has the same prior and candidates, so if one
            # fails the first-prediction check they all do.
            raise PipelineError("kalman", targets[0] + 1, exc) from exc

    n, g = y.shape[0], len(grid)
    yb = y[:, targets]
    xb = np.stack([y[:, idx] for idx in preds], axis=1)
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
    return list(zip(phi_path.transpose(1, 0, 2), innovations.T, fits))


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
    d_path = np.column_stack([f.sigma2_path for f in fits])
    return ScgarchFitResult(
        model=model,
        ordering=perm,
        cholesky=CholeskyPath(t_path, d_path),
        innovations=innovations,
        garch_fits=fits,
        cov_path=CovariancePath(mcd_reconstruct(t_path, d_path)[:, rank][:, :, rank]),
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


def fit_scgarch(panel: TimeSeriesPanel, config: ScgarchConfig | None = None
                ) -> ScgarchFitResult:
    """Two-step fit: Kalman-filtered coefficient paths, then GARCH variances."""
    return fit_model(panel, "scgarch", config)


def fit_cgarch(panel: TimeSeriesPanel) -> ScgarchFitResult:
    """Constant-coefficient baseline: static T from full-sample regressions."""
    return fit_model(panel, "cgarch")


def bic(total_loglik: float, n: int, p: int) -> float:
    """Bayesian information criterion with k = 3p static parameters
    (one GARCH triple per series; latent coefficient states not counted)."""
    return -2.0 * total_loglik + 3.0 * p * np.log(n)


DEFAULT_EXHAUSTIVE_LIMIT = 8
DEFAULT_ORDERING_SAMPLES = 200


def _best_ordering(p: int, score) -> tuple[int, ...]:
    """Ordering of 0..p-1 maximizing ``sum_k score(o[k], set(o[:k]))``.

    Dynamic programming over predecessor sets (the order-DP of exact
    Bayesian-network structure learning): ``g(S) = max over j not in S of
    score(j, S) + g(S | {j})`` with ``g(all) = 0``, which calls ``score``
    once for each of the p * 2**(p-1) pairs (j, S).  The ordering is
    rebuilt forward from the empty set taking, at each step, the smallest
    j whose value equals the maximum exactly, so among orderings with
    exactly equal totals the lexicographically smallest is returned.
    """
    full = frozenset(range(p))
    g = {full: 0.0}
    choice = {}
    for size in range(p - 1, -1, -1):
        for placed in itertools.combinations(range(p), size):
            placed = frozenset(placed)
            for j in sorted(full - placed):
                value = score(j, placed) + g[placed | {j}]
                if placed not in choice or value > g[placed]:
                    g[placed], choice[placed] = value, j
    ordering, placed = [], frozenset()
    while placed != full:
        ordering.append(choice[placed])
        placed = placed | {choice[placed]}
    return tuple(ordering)


def order_by_bic(panel: TimeSeriesPanel, config: ScgarchConfig | None = None, *,
                 model: str = "scgarch", mode: str = "exhaustive",
                 exhaustive_limit: int = DEFAULT_EXHAUSTIVE_LIMIT,
                 n_samples: int = DEFAULT_ORDERING_SAMPLES,
                 seed: int = 0) -> ScgarchFitResult:
    """Fit ``model`` in the variable ordering minimizing its BIC.

    All candidate orderings share the same parameter count, so the ranking
    reduces to total log-likelihood; BIC is still the reported criterion.
    A series' log-likelihood depends only on the set of its predecessors,
    so both modes score columns through one cache of (series, set) fits.
    Exhaustive mode finds the best of all p! orderings by dynamic
    programming over predecessor sets (``_best_ordering``), at a cost of
    p * 2**(p-1) column fits (1,024 at the default limit p = 8), and
    refuses p above ``exhaustive_limit``; sampled mode scores
    ``n_samples`` (at least 1) uniformly drawn permutations (seeded).
    Either mode fits the (series, set) pairs it needs with one
    ``_fit_columns`` call.  Ties break toward the lexicographically
    smallest permutation.

    Returns the fit in the chosen ``result.ordering``, assembled from the
    search's column fits: bit for bit the fit ``fit_model`` makes in that
    ordering.
    """
    config = config or ScgarchConfig()
    p = panel.p
    if mode == "exhaustive":
        if p > exhaustive_limit:
            raise TooManyPermutations(
                f"p={p} exceeds the exhaustive limit {exhaustive_limit}; "
                "use sampled mode"
            )
    elif mode != "sampled":
        raise ValueError(f"unknown ordering mode {mode!r}")
    elif n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    _check(panel, model)
    if mode == "exhaustive":
        pairs = [(j, frozenset(s)) for size in range(p)
                 for s in itertools.combinations(range(p), size)
                 for j in range(p) if j not in s]
        fitted = _fit_columns(panel.values, model, config, pairs)
        perm = _best_ordering(p, lambda j, s: fitted[(j, s)][2].loglik)
    else:
        rng = np.random.default_rng(seed)
        candidates = sorted({tuple(rng.permutation(p).tolist())
                             for _ in range(n_samples)})
        paths = [_ordering_pairs(perm) for perm in candidates]
        fitted = _fit_columns(panel.values, model, config,
                              [pair for path in paths for pair in path])
        bics = [bic(sum(fitted[pair][2].loglik for pair in path), panel.n, p)
                for path in paths]
        # The candidates are sorted and distinct, so an exact tie in BIC
        # goes to the lexicographically smallest.
        perm = min(zip(bics, candidates))[1]
    return _assemble(panel, model, perm, fitted)
