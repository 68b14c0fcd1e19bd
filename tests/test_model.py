import itertools
from dataclasses import replace

import numpy as np
import pytest

from scgarch import model
from scgarch.exceptions import (
    DegenerateSeries,
    DimensionMismatch,
    PipelineError,
    TooManyPermutations,
)
from scgarch.garch import GarchParams, garch_fit, garch_loglik, simulate_garch
from scgarch.kalman import KalmanConfig, filter_regression, tune_state_noise
from scgarch.mcd import mcd_reconstruct
from scgarch.model import (
    CholeskyPath,
    CovariancePath,
    ScgarchConfig,
    TimeSeriesPanel,
    bic,
    fit_cgarch,
    fit_model,
    fit_scgarch,
    order_by_bic,
)
from scgarch.model import _best_ordering
from scgarch.simulate import Sim2Config, generate_sim2

TUNED = ScgarchConfig(state_noise=tuple(np.logspace(-6, -1, 6)))


def iid_panel(n, variances, seed):
    rng = np.random.default_rng(seed)
    return TimeSeriesPanel(rng.standard_normal((n, len(variances))) * np.sqrt(variances))


def constant_coefficient_panel(n, phi=0.5, seed=0):
    rng = np.random.default_rng(seed)
    y1 = rng.standard_normal(n)
    y2 = phi * y1 + rng.standard_normal(n)
    return TimeSeriesPanel(np.column_stack([y1, y2]))


def causal_chain_panel(n, seed):
    # chain 1 -> 2 -> 3 with strongly heteroscedastic innovations
    base = 10_000 + seed
    e1, _ = simulate_garch(GarchParams(0.1, 0.3, 0.6), n, seed=base)
    e2, _ = simulate_garch(GarchParams(0.05, 0.3, 0.6), n, seed=base + 1)
    e3, _ = simulate_garch(GarchParams(0.2, 0.3, 0.6), n, seed=base + 2)
    y1 = e1
    y2 = 0.8 * y1 + e2
    y3 = 0.7 * y2 - 0.4 * y1 + e3
    return TimeSeriesPanel(np.column_stack([y1, y2, y3]))


def mixed_garch_panel(n, p, seed):
    # lower-triangular mixing of GARCH innovations, columns shuffled so the
    # generating order is not the identity
    rng = np.random.default_rng(seed)
    eps = np.column_stack([
        simulate_garch(GarchParams(0.05 * (k + 1), 0.3, 0.6), n, seed=20_000 + 10 * seed + k)[0]
        for k in range(p)
    ])
    mix = np.tril(rng.normal(0.0, 0.8, (p, p)), -1) + np.eye(p)
    return TimeSeriesPanel((eps @ mix.T)[:, rng.permutation(p)])


def all_pairs(p):
    return [(j, frozenset(s)) for size in range(p)
            for s in itertools.combinations(range(p), size)
            for j in range(p) if j not in s]


def oracle_column(panel, j, preds, config):
    """Column j on the columns ``preds`` (in that order), one regression at
    a time through the public Kalman functions: the state noise from
    ``tune_state_noise`` over ``config.state_noise`` (a single candidate
    is its own choice), the run from ``filter_regression`` and, with
    ``two_pass``, one re-filter at the same config with the fitted
    variance path.  Returns the coefficient path (or None without
    predecessors), the innovations and the GARCH fit.
    """
    y = panel.values
    if not preds:
        return None, y[:, j], garch_fit(y[:, j])
    yj, xj = y[:, j], y[:, list(preds)]
    meas_var = model._ols_residual_variance(yj, xj)
    base = KalmanConfig.default(len(preds), meas_var, kappa=config.kappa)
    q = tune_state_noise(yj, xj, base, config.state_noise)
    cfg = KalmanConfig.default(len(preds), meas_var, kappa=config.kappa, state_noise=q)
    run = filter_regression(yj, xj, cfg)
    fit = garch_fit(run.innovations)
    if config.two_pass:
        run = filter_regression(yj, xj, cfg, meas_var_path=fit.sigma2_path)
        fit = garch_fit(run.innovations)
    return run.phi_path, run.innovations, fit


def brute_force_bics(panel, model_name, config):
    candidates = sorted(itertools.permutations(range(panel.p)))
    return candidates, [
        bic(fit_model(panel, model_name, config, perm).total_loglik, panel.n, panel.p)
        for perm in candidates
    ]


class TestPanel:
    def test_labels_and_shape(self):
        panel = TimeSeriesPanel(np.arange(12.0).reshape(6, 2), ["a", "b"])
        assert panel.labels == ["a", "b"]
        assert panel.n == 6 and panel.p == 2

    def test_validation(self):
        with pytest.raises(DimensionMismatch):
            TimeSeriesPanel(np.zeros((2, 3)))  # n <= p
        with pytest.raises(ValueError):
            TimeSeriesPanel(np.array([[1.0], [np.nan], [0.0]]))
        with pytest.raises(DimensionMismatch):
            TimeSeriesPanel(np.zeros((5, 2)), ["a", "a"])


class TestExtractInnovations:
    """The first step of the pipeline, seen through the fit's factor and
    innovations."""

    def test_p1_passthrough(self):
        panel = iid_panel(100, [1.0], seed=0)
        fit = fit_scgarch(panel)
        np.testing.assert_array_equal(fit.cholesky.t_path, np.ones((100, 1, 1)))
        np.testing.assert_array_equal(fit.innovations, panel.values)

    def test_constant_coefficient_recovered(self):
        panel = constant_coefficient_panel(1000, phi=0.5, seed=42)
        fit = fit_scgarch(panel, ScgarchConfig(state_noise=(0.0,)))
        late = -fit.cholesky.t_path[-100:, 1, 0]
        assert np.all(np.abs(late - 0.5) < 0.05)

    def test_triangular_identity(self):
        # T_t y_t = eps_t, with y_t taken in processing order
        panel = causal_chain_panel(300, seed=1)
        for perm in [(0, 1, 2), (2, 0, 1), (1, 2, 0)]:
            fit = fit_model(panel, "scgarch", ScgarchConfig(), perm)
            resid = np.einsum("tij,tj->ti", fit.cholesky.t_path, panel.values[:, perm])
            np.testing.assert_allclose(resid, fit.innovations, atol=1e-10)


class TestFitScgarch:
    def test_iid_diagonal_recovery(self):
        variances = np.array([1.0, 2.0, 0.5])
        diag_ratios, max_corr = [], []
        for seed in range(20):
            fit = fit_scgarch(iid_panel(2000, variances, seed=seed))
            avg = fit.cov_path.sigmas.mean(axis=0)
            diag_ratios.append(np.diag(avg) / variances)
            corr = fit.cov_path.correlations().mean(axis=0)
            max_corr.append(np.max(np.abs(corr[np.triu_indices(3, 1)])))
        med = np.median(np.asarray(diag_ratios), axis=0)
        assert np.all(np.abs(med - 1.0) < 0.15)
        assert np.median(max_corr) < 0.1

    def test_sine_covariance_tracking(self):
        data = generate_sim2(Sim2Config(seed=3))
        fit = fit_scgarch(data.panel, TUNED)
        est = fit.cov_path.correlations()[:, 1, 0]
        true = data.truth.correlations()[:, 1, 0]
        assert np.corrcoef(est, true)[0, 1] > 0.5

    def test_p1_reduces_to_plain_garch(self):
        panel = iid_panel(500, [2.0], seed=9)
        fit = fit_scgarch(panel)
        plain = garch_fit(panel.values[:, 0])
        np.testing.assert_allclose(fit.cov_path.sigmas[:, 0, 0], plain.sigma2_path,
                                   rtol=1e-12)
        assert fit.total_loglik == pytest.approx(plain.loglik, abs=1e-8)

    def test_total_loglik_decomposes_per_series(self):
        panel = causal_chain_panel(400, seed=7)
        fit = fit_scgarch(panel)
        parts = [
            garch_loglik(f.params, fit.innovations[:, j], f.sigma2_init)
            for j, f in enumerate(fit.garch_fits)
        ]
        assert fit.total_loglik == pytest.approx(sum(parts), abs=1e-8)

    def test_every_sigma_is_pd(self):
        fit = fit_scgarch(causal_chain_panel(300, seed=2))
        np.linalg.cholesky(fit.cov_path.sigmas)  # raises if any step fails

    def test_likelihood_decomposition_identity(self):
        panel = causal_chain_panel(400, seed=5)
        fit = fit_scgarch(panel)
        sig = fit.cov_path.sigmas
        y = panel.values
        direct = sum(
            np.log(np.linalg.det(sig[t])) + y[t] @ np.linalg.solve(sig[t], y[t])
            for t in range(panel.n)
        )
        assert direct == pytest.approx(-fit.total_loglik, rel=1e-6)

    def test_innovations_are_whitened(self):
        fit = fit_scgarch(causal_chain_panel(2000, seed=11))
        corr = np.corrcoef(fit.innovations, rowvar=False)
        assert np.max(np.abs(corr[np.triu_indices(3, 1)])) < 0.15

    def test_permutation_contract(self):
        panel = causal_chain_panel(300, seed=13)
        perm = (2, 0, 1)
        fit_reordered = fit_model(panel, "scgarch", ScgarchConfig(), perm)
        fit_direct = fit_scgarch(TimeSeriesPanel(panel.values[:, perm]))
        a = fit_reordered.cov_path.sigmas
        b = fit_direct.cov_path.sigmas
        for i in range(3):
            for j in range(3):
                np.testing.assert_allclose(a[:, perm[i], perm[j]], b[:, i, j],
                                           atol=1e-9)

    def test_two_pass_runs(self):
        panel = constant_coefficient_panel(300, seed=21)
        fit = fit_scgarch(panel, ScgarchConfig(two_pass=True))
        assert fit.cov_path.n == 300
        np.linalg.cholesky(fit.cov_path.sigmas)

    def test_two_pass_reuses_first_pass_configs_and_column_0(self, monkeypatch):
        panel = causal_chain_panel(200, seed=4)
        config = replace(TUNED, two_pass=True)
        # Each regression tuned once and re-filtered at that noise with its
        # first-pass variance path; column 0 is fitted once.
        expected = [oracle_column(panel, j, range(j), config) for j in range(3)]
        t_path = np.broadcast_to(np.eye(3), (200, 3, 3)).copy()
        for j in (1, 2):
            t_path[:, j, :j] = -expected[j][0]
        refit = [fit for _, _, fit in expected]
        expected_cov = mcd_reconstruct(t_path, np.column_stack([f.sigma2_path for f in refit]))

        calls = []

        def counting_fit(eps):
            calls.append(1)
            return garch_fit(eps)

        monkeypatch.setattr(model, "garch_fit", counting_fit)
        fit = fit_scgarch(panel, config)
        assert len(calls) == 5
        np.testing.assert_array_equal(fit.cholesky.t_path, t_path)
        np.testing.assert_array_equal(fit.innovations,
                                      np.column_stack([e for _, e, _ in expected]))
        np.testing.assert_array_equal(fit.cov_path.sigmas, expected_cov)
        assert fit.total_loglik == sum(f.loglik for f in refit)

    def test_failure_names_the_original_column(self):
        rng = np.random.default_rng(2)
        panel = TimeSeriesPanel(np.column_stack([rng.standard_normal(100), np.zeros(100)]))
        with pytest.raises(PipelineError) as exc:
            fit_model(panel, "scgarch", ScgarchConfig(), (1, 0))
        assert (exc.value.stage, exc.value.index) == ("garch", 2)

    @pytest.mark.parametrize("ordering, stage", [((1, 0), "garch"), ((0, 1), "kalman")])
    def test_overflowing_series_is_a_typed_failure(self, ordering, stage):
        # Column 2's squares overflow.  First in the ordering, its GARCH fit
        # has no finite candidate; second, its regression has no state
        # noise with a finite predictive likelihood.
        eps, _ = simulate_garch(GarchParams(0.1, 0.1, 0.8), 200, seed=3)
        first = np.random.default_rng(0).standard_normal(200)
        panel = TimeSeriesPanel(np.column_stack([first, eps * 1e155]))
        with np.errstate(all="ignore"), pytest.raises(PipelineError) as exc:
            fit_model(panel, "scgarch", TUNED, ordering)
        assert (exc.value.stage, exc.value.index) == (stage, 2)
        if stage == "garch":
            assert isinstance(exc.value.cause, DegenerateSeries)

    def test_rejects_short_panel(self):
        with pytest.raises(DimensionMismatch):
            fit_scgarch(iid_panel(30, [1.0, 1.0], seed=0))


@pytest.mark.parametrize("name, value", [
    ("kappa", -1.0), ("kappa", np.nan), ("state_noise", (-1e-4,)),
    ("state_noise", (np.inf,)), ("state_noise", ()), ("state_noise", (1e-4, -1e-3)),
    ("state_noise", (1e-4, np.nan)),
], ids=["kappa--1.0", "kappa-nan", "state_noise--0.0001", "state_noise-inf",
        "state_noise-empty", "state_noise-negative-candidate", "state_noise-nan-candidate"])
def test_config_rejects_invalid_settings(name, value):
    with pytest.raises(ValueError):
        ScgarchConfig(**{name: value})


def test_config_rejects_a_bare_number_for_the_state_noise():
    with pytest.raises(TypeError):
        ScgarchConfig(state_noise=1e-4)


@pytest.mark.parametrize("settings", [
    {"state_noise": (0.0,)}, {"state_noise": (1e-2, 0.0)},
])
def test_config_rejects_zero_prior_with_a_zero_noise_candidate(settings):
    # The first predicted state covariance kappa * I + q * I would be zero.
    with pytest.raises(ValueError, match="kappa = 0"):
        ScgarchConfig(kappa=0.0, **settings)
    ScgarchConfig(kappa=1e-3, **settings)


def test_config_accepts_zero_prior_with_positive_noise():
    ScgarchConfig(kappa=0.0, state_noise=(1e-4,))
    ScgarchConfig(kappa=0.0, state_noise=(1e-4, 1e-2))


def test_config_sorts_the_state_noise_candidates():
    unsorted = ScgarchConfig(state_noise=(1e-2, 1e-6, 1e-4))
    assert unsorted.state_noise == (1e-6, 1e-4, 1e-2)
    panel = causal_chain_panel(200, seed=4)
    a = fit_scgarch(panel, unsorted)
    b = fit_scgarch(panel, ScgarchConfig(state_noise=(1e-6, 1e-4, 1e-2)))
    np.testing.assert_array_equal(a.cov_path.sigmas, b.cov_path.sigmas)
    assert a.total_loglik == b.total_loglik


class TestFitCgarch:
    def test_static_t_agrees_with_late_filtered_t(self):
        panel = constant_coefficient_panel(1000, phi=0.5, seed=8)
        static = fit_cgarch(panel)
        dynamic = fit_scgarch(panel, ScgarchConfig(state_noise=(0.0,)))
        phi_static = -static.cholesky.t_path[0, 1, 0]
        phi_late = -dynamic.cholesky.t_path[-1, 1, 0]
        assert abs(phi_static - phi_late) < 0.05
        # constant-T contract: every step carries the same matrix
        assert np.ptp(static.cholesky.t_path, axis=0).max() == 0.0

    def test_p1_matches_scgarch(self):
        panel = iid_panel(400, [1.5], seed=14)
        a, b = fit_cgarch(panel), fit_scgarch(panel)
        np.testing.assert_allclose(a.cov_path.sigmas, b.cov_path.sigmas, rtol=1e-12)

    def test_scgarch_tracks_better_on_sine_design(self):
        wins = 0
        reps = 100
        for rep in range(reps):
            data = generate_sim2(Sim2Config(seed=5000 + rep))
            truth = data.truth.correlations()[:, 1, 0]
            sc = fit_scgarch(data.panel).cov_path.correlations()[:, 1, 0]
            cg = fit_cgarch(data.panel).cov_path.correlations()[:, 1, 0]
            wins += np.corrcoef(sc, truth)[0, 1] > np.corrcoef(cg, truth)[0, 1]
        assert wins > reps / 2


class TestOrdering:
    def test_p1_identity(self):
        assert order_by_bic(iid_panel(60, [1.0], seed=0)).ordering == (0,)

    def test_tie_breaks_lexicographically(self, monkeypatch):
        # Every series scores the same log-likelihood, so every ordering ties.
        def flat_fit(eps):
            return replace(garch_fit(eps), loglik=0.0)

        monkeypatch.setattr(model, "garch_fit", flat_fit)
        panel = mixed_garch_panel(100, 3, seed=0)
        for mode in ("exhaustive", "sampled"):
            result = order_by_bic(panel, model="cgarch", mode=mode, n_samples=40, seed=5)
            assert result.ordering == (0, 1, 2)

    def test_exchangeable_columns_score_alike(self):
        # same-law columns: the two orderings differ only by noise
        panel = iid_panel(400, [1.0, 1.0], seed=2)
        scores = [
            bic(fit_model(panel, "scgarch", ScgarchConfig(), perm).total_loglik,
                panel.n, panel.p)
            for perm in [(0, 1), (1, 0)]
        ]
        assert abs(scores[0] - scores[1]) < 0.05 * abs(scores[0])

    def test_exhaustive_limit(self):
        panel = iid_panel(100, np.ones(3), seed=0)
        with pytest.raises(TooManyPermutations):
            order_by_bic(panel, exhaustive_limit=2)

    def test_sampled_mode_returns_valid_permutation(self):
        panel = causal_chain_panel(200, seed=3)
        perm = order_by_bic(panel, mode="sampled", n_samples=5, seed=1).ordering
        assert sorted(perm) == [0, 1, 2]

    def test_recovers_causal_order_in_majority(self):
        hits = 0
        reps = 100
        for rep in range(reps):
            panel = causal_chain_panel(300, seed=rep)
            hits += order_by_bic(panel).ordering == (0, 1, 2)
        assert hits > reps / 2

    @pytest.mark.parametrize("model_name", ["scgarch", "cgarch"])
    @pytest.mark.parametrize("p", [2, 3, 4, 5])
    def test_dp_matches_brute_force(self, model_name, p):
        panel = mixed_garch_panel(200, p, seed=p)
        candidates, bics = brute_force_bics(panel, model_name, ScgarchConfig())
        top = sorted(bics)
        assert top[1] - top[0] > 1e-6  # distinct scores: the argmin is well defined
        chosen = order_by_bic(panel, model=model_name).ordering
        assert chosen == min(zip(bics, candidates))[1]

    def test_dp_matches_brute_force_tuned_two_pass(self):
        panel = mixed_garch_panel(150, 3, seed=7)
        config = replace(TUNED, two_pass=True)
        candidates, bics = brute_force_bics(panel, "scgarch", config)
        top = sorted(bics)
        assert top[1] - top[0] > 1e-6
        assert order_by_bic(panel, config).ordering == min(zip(bics, candidates))[1]

    # p = 4: p * 2**(p-1) = 32 (column, predecessor set) pairs, 28 of them
    # with predecessors, which the second pass re-filters and refits
    @pytest.mark.parametrize("model_name, two_pass, expected", [
        ("scgarch", False, 32), ("cgarch", False, 32), ("scgarch", True, 32 + 28),
    ])
    def test_search_fits_each_column_set_once(self, monkeypatch, model_name,
                                              two_pass, expected):
        calls = []

        def counting_fit(eps):
            calls.append(1)
            return garch_fit(eps)

        monkeypatch.setattr(model, "garch_fit", counting_fit)
        panel = mixed_garch_panel(100, 4, seed=1)
        order_by_bic(panel, ScgarchConfig(two_pass=two_pass), model=model_name)
        assert len(calls) == expected

    @pytest.mark.parametrize("config", [
        ScgarchConfig(), TUNED, replace(TUNED, two_pass=True),
    ], ids=["fixed", "tuned", "tuned-two-pass"])
    def test_batched_scores_match_per_column_fits(self, config):
        panel = mixed_garch_panel(150, 4, seed=3)
        pairs = all_pairs(4)
        fitted = model._fit_columns(panel.values, "scgarch", config, pairs)
        assert len(fitted) == 32
        for j, preds in pairs:
            _, _, expected = oracle_column(panel, j, sorted(preds), config)
            assert fitted[(j, preds)][2].loglik == pytest.approx(expected.loglik, rel=1e-12)

    @pytest.mark.parametrize("model_name, config, mode", [
        ("scgarch", ScgarchConfig(), "exhaustive"),
        ("scgarch", replace(TUNED, two_pass=True), "exhaustive"),
        ("cgarch", ScgarchConfig(), "exhaustive"),
        ("scgarch", TUNED, "sampled"),
    ], ids=["scgarch-fixed", "scgarch-tuned-two-pass", "cgarch", "scgarch-sampled"])
    def test_search_pairs_add_up_to_the_final_fit(self, model_name, config, mode):
        # The search and the final fit share one column fit, so the pairs
        # along the chosen ordering add up to the final fit exactly, and
        # the fit the search returns is the fit of its ordering, bit for bit.
        panel = mixed_garch_panel(150, 4, seed=6)
        fitted = model._fit_columns(panel.values, model_name, config, all_pairs(4))
        result = order_by_bic(panel, config, model=model_name, mode=mode,
                              n_samples=6, seed=1)
        chosen = result.ordering
        assert chosen != (0, 1, 2, 3)
        path_sum = sum(fitted[(j, frozenset(chosen[:k]))][2].loglik
                       for k, j in enumerate(chosen))
        final = fit_model(panel, model_name, config, chosen)
        assert path_sum == final.total_loglik == result.total_loglik
        np.testing.assert_array_equal(result.cov_path.sigmas, final.cov_path.sigmas)
        np.testing.assert_array_equal(result.cholesky.t_path, final.cholesky.t_path)
        np.testing.assert_array_equal(result.innovations, final.innovations)
        for got, want in zip(result.garch_fits, final.garch_fits, strict=True):
            np.testing.assert_array_equal(got.sigma2_path, want.sigma2_path)

    def test_sampled_mode_needs_a_sample(self):
        with pytest.raises(ValueError):
            order_by_bic(causal_chain_panel(200, seed=3), mode="sampled", n_samples=0)

    def test_best_ordering_breaks_exact_ties_lexicographically(self):
        # (1, 0, 2) and (2, 0, 1) both total 5.0; everything else is lower
        table = {(1, frozenset()): 2.0, (2, frozenset()): 2.0,
                 (0, frozenset({1})): 3.0, (0, frozenset({2})): 3.0}
        assert _best_ordering(3, lambda j, s: table.get((j, s), 0.0)) == (1, 0, 2)
        assert _best_ordering(3, lambda j, s: 0.0) == (0, 1, 2)

    def test_cgarch_search_keeps_static_pd_check(self):
        col = np.random.default_rng(4).standard_normal(100)
        with pytest.raises(PipelineError) as exc:
            order_by_bic(TimeSeriesPanel(np.column_stack([col, col])), model="cgarch")
        assert exc.value.stage == "static-mcd"

    def test_bic_formula(self):
        assert bic(-100.0, 50, 3) == pytest.approx(200.0 + 9 * np.log(50))


class TestContainers:
    def test_cholesky_path_validation(self):
        t = np.broadcast_to(np.eye(2), (5, 2, 2)).copy()
        with pytest.raises(Exception):
            CholeskyPath(t, np.zeros((5, 2)))  # d not positive
        t_bad = t.copy()
        t_bad[0, 0, 1] = 0.5
        with pytest.raises(DimensionMismatch):
            CholeskyPath(t_bad, np.ones((5, 2)))

    def test_covariance_path_correlations(self):
        sig = np.array([[[4.0, 2.0], [2.0, 9.0]]])
        corr = CovariancePath(sig).correlations()
        np.testing.assert_allclose(corr[0], [[1.0, 2.0 / 6.0], [2.0 / 6.0, 1.0]])

    def test_fit_model_dispatch(self):
        panel = iid_panel(100, [1.0, 1.0], seed=1)
        assert fit_model(panel, "cgarch").model == "cgarch"
        with pytest.raises(ValueError):
            fit_model(panel, "unknown")
