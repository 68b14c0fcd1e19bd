"""End-to-end estimators for time-varying covariance matrices.

``fit_scgarch`` runs the two-step pipeline: (1) filter each variable's
regression on its predecessors to get time-varying coefficient rows and
mutually uncorrelated innovations; (2) fit a GARCH(1,1) model to each
innovation series.  The covariance path is assembled per time step as
``inv(T_t) @ diag(D_t) @ inv(T_t).T``, positive definite by construction.

``fit_cgarch`` is the constant-coefficient baseline (static T from the
full-sample regressions, GARCH step unchanged).  ``order_by_bic`` ranks
variable orderings of either model.
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
from .garch import GarchFit, garch_fit, garch_loglik
from .kalman import (
    KalmanConfig,
    KalmanRun,
    _best_candidate,
    _checked_grid,
    _gain_filter,
    filter_regression,
    tune_state_noise,
)
from .mcd import mcd_decompose

# Floor applied to the regression-residual variance so degenerate
# (near-collinear) columns do not produce a zero measurement variance.
_MEAS_VAR_FLOOR = 1e-12


@dataclass
class TimeSeriesPanel:
    """An n x p panel of mean-zero observations.

    Columns are addressable by integer index or by label.
    """

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

    def column(self, key) -> np.ndarray:
        idx = self.labels.index(key) if isinstance(key, str) else int(key)
        return self.values[:, idx]

    def permuted(self, ordering) -> "TimeSeriesPanel":
        perm = check_permutation(ordering, self.p)
        return TimeSeriesPanel(self.values[:, perm], [self.labels[k] for k in perm])


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


@dataclass(frozen=True)
class ScgarchConfig:
    """Settings shared by the pipeline fits.

    kappa / state_noise parameterize each regression's prior (zero mean,
    kappa * I covariance) and random-walk noise (state_noise * I).  When
    ``tune_grid`` is set, the state noise is chosen per regression by
    predictive likelihood over that grid instead.  ``two_pass`` re-runs
    the coefficient filter once with the fitted conditional variances as
    per-step measurement noise.  ``ordering`` is a column permutation
    applied before fitting (covariances are reported back in the original
    variable order).
    """

    kappa: float = 10.0
    state_noise: float = 1e-4
    tune_grid: tuple[float, ...] | None = None
    two_pass: bool = False
    ordering: tuple[int, ...] | None = None
    garch_gtol: float = 1e-6
    garch_xtol: float = 1e-9


@dataclass
class ScgarchFitResult:
    """Everything produced by one pipeline fit.

    ``cholesky``, ``innovations``, ``garch_fits`` and ``kalman_runs`` are
    in processing order (after applying ``ordering``); ``cov_path`` is
    reported in the original variable order.
    """

    model: str
    ordering: tuple[int, ...]
    cholesky: CholeskyPath
    innovations: np.ndarray
    garch_fits: list[GarchFit]
    kalman_runs: list[KalmanRun] | None
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


def _default_config(yj: np.ndarray, xj: np.ndarray, config: ScgarchConfig
                    ) -> KalmanConfig:
    """Prior and fixed state noise from ``config``; the measurement variance
    is the full-sample OLS residual variance of ``yj`` on ``xj``."""
    return KalmanConfig.default(
        xj.shape[1], meas_var=_ols_residual_variance(yj, xj),
        kappa=config.kappa, state_noise=config.state_noise,
    )


def _filter_column(yj: np.ndarray, xj: np.ndarray, config: ScgarchConfig,
                   series: int, cfg: KalmanConfig | None = None,
                   meas_var_path=None) -> tuple[KalmanConfig, KalmanRun]:
    """Filter one regression of ``yj`` on the regressor columns ``xj``.

    Without ``cfg`` the config is ``_default_config``, with the state noise
    tuned over ``config.tune_grid`` when that is set; the tuning pass's run
    at the chosen noise is the result, unless ``meas_var_path`` asks for a
    re-filter.  Returns the config used and the run; a failure is reported
    against ``series``.
    """
    try:
        if cfg is None:
            cfg = _default_config(yj, xj, config)
            if config.tune_grid:
                q, run = tune_state_noise(yj, xj, cfg, config.tune_grid,
                                          full_output=True)
                cfg = cfg.with_state_noise(q)
                if meas_var_path is None:
                    return cfg, run
        return cfg, filter_regression(yj, xj, cfg, meas_var_path=meas_var_path)
    except ScgarchError as exc:
        raise PipelineError("kalman", series, exc) from exc


def _extract(panel: TimeSeriesPanel, kalman_cfgs, config: ScgarchConfig,
             meas_var_paths):
    """``extract_innovations`` that also returns the configs it used."""
    y = panel.values
    n, p = y.shape
    if kalman_cfgs is not None and len(kalman_cfgs) != p - 1:
        raise DimensionMismatch(f"need {p - 1} kalman configs, got {len(kalman_cfgs)}")
    if meas_var_paths is not None and len(meas_var_paths) != p - 1:
        raise DimensionMismatch(f"need {p - 1} variance paths, got {len(meas_var_paths)}")

    t_path = np.broadcast_to(np.eye(p), (n, p, p)).copy()
    innovations = np.empty((n, p))
    innovations[:, 0] = y[:, 0]
    runs: list[KalmanRun] = []
    cfgs: list[KalmanConfig] = []
    for j in range(1, p):
        cfg, run = _filter_column(
            y[:, j], y[:, :j], config, j + 1,
            cfg=None if kalman_cfgs is None else kalman_cfgs[j - 1],
            meas_var_path=None if meas_var_paths is None else meas_var_paths[j - 1],
        )
        t_path[:, j, :j] = -run.phi_path
        innovations[:, j] = run.innovations
        runs.append(run)
        cfgs.append(cfg)
    return t_path, innovations, runs, cfgs


def extract_innovations(panel: TimeSeriesPanel, kalman_cfgs=None, *,
                        config: ScgarchConfig | None = None,
                        meas_var_paths=None):
    """Filter each variable on its predecessors, in panel column order.

    Returns ``(t_path, innovations, kalman_runs)`` where ``t_path`` holds
    the unit-lower-triangular coefficient matrices (row j carries the
    negated filtered coefficients, so ``t_path[t] @ y[t] == innovations[t]``
    exactly), ``innovations`` is the n x p residual panel (column 0 is the
    first variable itself), and ``kalman_runs`` has one entry per
    regression.

    ``kalman_cfgs`` may supply one KalmanConfig per regression (p - 1 of
    them); otherwise configs are built from ``config`` with the
    measurement variance set to each regression's full-sample OLS residual
    variance.  ``meas_var_paths`` optionally overrides the measurement
    variance per step, one length-n array per regression.
    """
    return _extract(panel, kalman_cfgs, config or ScgarchConfig(), meas_var_paths)[:3]


def _fit_garch_column(eps: np.ndarray, config: ScgarchConfig, series: int) -> GarchFit:
    try:
        return garch_fit(eps, gtol=config.garch_gtol, xtol=config.garch_xtol)
    except ScgarchError as exc:
        raise PipelineError("garch", series, exc) from exc


def _fit_garch_columns(innovations: np.ndarray, config: ScgarchConfig) -> list[GarchFit]:
    return [_fit_garch_column(innovations[:, j], config, j + 1)
            for j in range(innovations.shape[1])]


def _assemble_cov_path(t_path: np.ndarray, d_path: np.ndarray) -> np.ndarray:
    n, p, _ = t_path.shape
    tinv = np.linalg.solve(t_path, np.broadcast_to(np.eye(p), (n, p, p)))
    sig = np.einsum("tik,tk,tjk->tij", tinv, d_path, tinv)
    return 0.5 * (sig + sig.transpose(0, 2, 1))


def _unpermute(sigmas: np.ndarray, perm: tuple[int, ...]) -> np.ndarray:
    iperm = np.argsort(np.asarray(perm))
    return sigmas[:, iperm, :][:, :, iperm]


def _finalize(model, perm, t_path, innovations, runs, fits):
    d_path = np.column_stack([f.sigma2_path for f in fits])
    cholesky = CholeskyPath(t_path, d_path)
    sigmas = _unpermute(_assemble_cov_path(t_path, d_path), perm)
    return ScgarchFitResult(
        model=model,
        ordering=perm,
        cholesky=cholesky,
        innovations=innovations,
        garch_fits=fits,
        kalman_runs=runs,
        cov_path=CovariancePath(sigmas),
        total_loglik=float(sum(f.loglik for f in fits)),
    )


MIN_FIT_PANEL_LENGTH = 50


def _check_length(panel: TimeSeriesPanel):
    if panel.n < MIN_FIT_PANEL_LENGTH:
        raise DimensionMismatch(
            f"need at least {MIN_FIT_PANEL_LENGTH} observations, got {panel.n}"
        )


def _prepare(panel: TimeSeriesPanel, config: ScgarchConfig | None):
    config = config or ScgarchConfig()
    _check_length(panel)
    perm = (check_permutation(config.ordering, panel.p)
            if config.ordering is not None else tuple(range(panel.p)))
    work = panel if perm == tuple(range(panel.p)) else panel.permuted(perm)
    return config, perm, work


def fit_scgarch(panel: TimeSeriesPanel, config: ScgarchConfig | None = None
                ) -> ScgarchFitResult:
    """Two-step fit: Kalman-filtered coefficient paths, then GARCH variances."""
    config, perm, work = _prepare(panel, config)
    t_path, innovations, runs, cfgs = _extract(work, None, config, None)
    fits = _fit_garch_columns(innovations, config)
    if config.two_pass and panel.p > 1:
        # The re-filter keeps each regression's first-pass config (tuned
        # noise included); column 0 is the raw series, so its fit stands.
        mv_paths = [f.sigma2_path for f in fits[1:]]
        t_path, innovations, runs, _ = _extract(work, cfgs, config, mv_paths)
        fits = fits[:1] + [_fit_garch_column(innovations[:, j], config, j + 1)
                           for j in range(1, panel.p)]
    return _finalize("scgarch", perm, t_path, innovations, runs, fits)


def fit_cgarch(panel: TimeSeriesPanel, config: ScgarchConfig | None = None
               ) -> ScgarchFitResult:
    """Constant-coefficient baseline: static T from full-sample regressions."""
    config, perm, work = _prepare(panel, config)
    y = work.values
    n, p = y.shape
    second_moment = (y.T @ y) / n
    try:
        t_static, _ = mcd_decompose(second_moment)
    except ScgarchError as exc:
        raise PipelineError("static-mcd", 0, exc) from exc
    innovations = y @ t_static.T
    t_path = np.broadcast_to(t_static, (n, p, p)).copy()
    fits = _fit_garch_columns(innovations, config)
    return _finalize("cgarch", perm, t_path, innovations, None, fits)


_FITTERS = {"scgarch": fit_scgarch, "cgarch": fit_cgarch}


def fit_model(panel: TimeSeriesPanel, model: str,
              config: ScgarchConfig | None = None) -> ScgarchFitResult:
    try:
        fitter = _FITTERS[model]
    except KeyError:
        raise ValueError(f"unknown model {model!r}; expected one of {sorted(_FITTERS)}")
    return fitter(panel, config)


def bic(total_loglik: float, n: int, p: int) -> float:
    """Bayesian information criterion with k = 3p static parameters
    (one GARCH triple per series; latent coefficient states not counted)."""
    return -2.0 * total_loglik + 3.0 * p * np.log(n)


def pick_minimum(candidates, scores) -> tuple[int, ...]:
    """First strict minimum over candidates already sorted for tie-breaks."""
    best, best_score = None, np.inf
    for cand, score in zip(candidates, scores):
        if score < best_score:
            best, best_score = cand, score
    return best


DEFAULT_EXHAUSTIVE_LIMIT = 8
DEFAULT_ORDERING_SAMPLES = 200


def _column_scores(panel: TimeSeriesPanel, model: str, config: ScgarchConfig,
                   pairs) -> dict[tuple[int, frozenset], float]:
    """Map each (j, preds) in ``pairs`` to the GARCH log-likelihood of column
    j's innovations when the columns in the frozenset ``preds`` precede it.

    The likelihood depends on the set, not on the order of the
    predecessors (isotropic prior and state noise, order-free OLS
    measurement variance, set-determined static regression), so each
    distinct pair is fitted once, with the predecessors in ascending column
    index.  The fits follow ``fit_scgarch`` (including the ``two_pass``
    re-filter) and ``fit_cgarch`` column by column; the scgarch regressions
    of one set size are filtered together (``_regression_logliks``).
    """
    y = panel.values
    by_size: dict[int, list] = {}
    for pair in dict.fromkeys(pairs):
        by_size.setdefault(len(pair[1]), []).append(pair)
    second_moment = (y.T @ y) / panel.n
    scores = {}
    for size, group in sorted(by_size.items()):
        if size == 0:
            logliks = [_fit_garch_column(y[:, j], config, j + 1).loglik for j, _ in group]
        elif model == "cgarch":
            logliks = [_static_loglik(y, second_moment, j, preds, config)
                       for j, preds in group]
        else:
            logliks = _regression_logliks(y, group, config)
        scores.update(zip(group, logliks))
    return scores


def _static_loglik(y, second_moment, j: int, preds: frozenset,
                   config: ScgarchConfig) -> float:
    block = sorted(preds) + [j]
    try:
        t, _ = mcd_decompose(second_moment[np.ix_(block, block)])
    except ScgarchError as exc:
        raise PipelineError("static-mcd", 0, exc) from exc
    return _fit_garch_column(y[:, block] @ t[-1], config, j + 1).loglik


def _regression_logliks(y: np.ndarray, pairs, config: ScgarchConfig) -> list[float]:
    """Scgarch scores of (j, preds) pairs that share one set size.

    One kernel pass filters every pair at every state-noise candidate
    (B = pairs x grid, a grid of one without ``tune_grid``); each pair keeps
    its best candidate by the rule of ``tune_state_noise``.  With
    ``two_pass`` a second pass (B = pairs) re-filters each pair at its
    noise with its fitted variance path.  Only innovations and
    log-likelihoods are kept.
    """
    targets = [j for j, _ in pairs]
    preds = [sorted(s) for _, s in pairs]
    cfgs = []
    for j, idx in zip(targets, preds):
        try:
            cfgs.append(_default_config(y[:, j], y[:, idx], config))
        except ScgarchError as exc:
            raise PipelineError("kalman", j + 1, exc) from exc
    grid = _checked_grid(config.tune_grid) if config.tune_grid else [config.state_noise]

    def filter_pass(yb, xb, q, meas_var):
        try:
            return _gain_filter(yb, xb, cfgs[0].phi0, cfgs[0].p0, q, meas_var)[:2]
        except ScgarchError as exc:
            # Every pair has the same prior and candidates, so if one
            # fails the first-prediction check they all do.
            raise PipelineError("kalman", targets[0] + 1, exc) from exc

    n, g = y.shape[0], len(grid)
    eye = np.eye(len(preds[0]))
    yb = y[:, targets]
    xb = np.stack([y[:, idx] for idx in preds], axis=1)
    meas_var = np.broadcast_to([c.meas_var for c in cfgs], (n, len(pairs)))
    innovations, loglik = filter_pass(
        np.repeat(yb, g, axis=1), np.repeat(xb, g, axis=1),
        np.tile(np.multiply.outer(grid, eye), (len(pairs), 1, 1)),
        np.repeat(meas_var, g, axis=1),
    )
    best = [_best_candidate(row) for row in loglik.reshape(len(pairs), g)]
    fits = [_fit_garch_column(innovations[:, i * g + b], config, j + 1)
            for i, (j, b) in enumerate(zip(targets, best))]
    if config.two_pass:
        innovations, _ = filter_pass(
            yb, xb, np.multiply.outer([grid[b] for b in best], eye),
            np.column_stack([f.sigma2_path for f in fits]),
        )
        fits = [_fit_garch_column(innovations[:, i], config, j + 1)
                for i, j in enumerate(targets)]
    return [f.loglik for f in fits]


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
                 seed: int = 0) -> tuple[int, ...]:
    """Choose the variable ordering minimizing the fitted model's BIC.

    All candidate orderings share the same parameter count, so the ranking
    reduces to total log-likelihood; BIC is still the reported criterion.
    A series' log-likelihood depends only on the set of its predecessors,
    so both modes score columns through one cache of (series, set) fits.
    Exhaustive mode finds the best of all p! orderings by dynamic
    programming over predecessor sets (``_best_ordering``), at a cost of
    p * 2**(p-1) column fits (1,024 at the default limit p = 8), and
    refuses p above ``exhaustive_limit``; sampled mode scores
    ``n_samples`` (at least 1) uniformly drawn permutations (seeded).
    Either mode first collects the (series, set) pairs it needs and fits
    them with one batched Kalman pass per set size.  Ties break toward the
    lexicographically smallest permutation.
    """
    config = config or ScgarchConfig()
    p = panel.p
    if p == 1:
        return (0,)
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
    if model not in _FITTERS:
        raise ValueError(f"unknown model {model!r}; expected one of {sorted(_FITTERS)}")
    _check_length(panel)
    if mode == "exhaustive":
        pairs = [(j, frozenset(s)) for size in range(p)
                 for s in itertools.combinations(range(p), size)
                 for j in range(p) if j not in s]
        scores = _column_scores(panel, model, config, pairs)
        return _best_ordering(p, lambda j, s: scores[(j, s)])

    rng = np.random.default_rng(seed)
    candidates = sorted({tuple(rng.permutation(p).tolist()) for _ in range(n_samples)})
    paths = [[(j, frozenset(perm[:k])) for k, j in enumerate(perm)] for perm in candidates]
    scores = _column_scores(panel, model, config, [pair for path in paths for pair in path])
    bics = [bic(sum(scores[pair] for pair in path), panel.n, p) for path in paths]
    return pick_minimum(candidates, bics)
