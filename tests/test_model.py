import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from scgarch import model
from scgarch.exceptions import (
    DegenerateSeries,
    DimensionMismatch,
    InvalidParameters,
    PipelineError,
    TooManyPermutations,
)
from scgarch.garch import GarchParams, garch_filter, garch_fit, garch_loglik, simulate_garch
from scgarch.kalman import KalmanConfig, filter_regression, tune_state_noise
from scgarch.kalman import _gain_filter
from scgarch.mcd import mcd_decompose, mcd_reconstruct
from scgarch.model import (
    CovariancePath,
    ScgarchConfig,
    TimeSeriesPanel,
    bic,
    fit_model,
    order_by_bic,
)
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
        fit = fit_model(panel, "scgarch")
        np.testing.assert_array_equal(fit.t_path, np.ones((100, 1, 1)))
        np.testing.assert_array_equal(fit.innovations, panel.values)

    def test_constant_coefficient_recovered(self):
        panel = constant_coefficient_panel(1000, phi=0.5, seed=42)
        fit = fit_model(panel, "scgarch", ScgarchConfig(state_noise=(0.0,)))
        late = -fit.t_path[-100:, 1, 0]
        assert np.all(np.abs(late - 0.5) < 0.05)

    def test_triangular_identity(self):
        # T_t y_t = eps_t, with y_t taken in processing order
        panel = causal_chain_panel(300, seed=1)
        for perm in [(0, 1, 2), (2, 0, 1), (1, 2, 0)]:
            fit = fit_model(panel, "scgarch", ScgarchConfig(), perm)
            resid = np.einsum("tij,tj->ti", fit.t_path, panel.values[:, perm])
            np.testing.assert_allclose(resid, fit.innovations, atol=1e-10)


class TestFitScgarch:
    def test_iid_diagonal_recovery(self):
        variances = np.array([1.0, 2.0, 0.5])
        diag_ratios, max_corr = [], []
        for seed in range(20):
            fit = fit_model(iid_panel(2000, variances, seed=seed), "scgarch")
            avg = fit.cov_path.sigmas.mean(axis=0)
            diag_ratios.append(np.diag(avg) / variances)
            corr = fit.cov_path.correlations().mean(axis=0)
            max_corr.append(np.max(np.abs(corr[np.triu_indices(3, 1)])))
        med = np.median(np.asarray(diag_ratios), axis=0)
        assert np.all(np.abs(med - 1.0) < 0.15)
        assert np.median(max_corr) < 0.1

    def test_sine_covariance_tracking(self):
        data = generate_sim2(Sim2Config(seed=3))
        fit = fit_model(data.panel, "scgarch", TUNED)
        est = fit.cov_path.correlations()[:, 1, 0]
        true = data.truth.correlations()[:, 1, 0]
        assert np.corrcoef(est, true)[0, 1] > 0.5

    def test_p1_reduces_to_plain_garch(self):
        panel = iid_panel(500, [2.0], seed=9)
        fit = fit_model(panel, "scgarch")
        plain = garch_fit(panel.values[:, 0])
        np.testing.assert_allclose(fit.cov_path.sigmas[:, 0, 0], plain.sigma2_path,
                                   rtol=1e-12)
        assert fit.total_loglik == pytest.approx(plain.loglik, abs=1e-8)

    def test_total_loglik_decomposes_per_series(self):
        panel = causal_chain_panel(400, seed=7)
        fit = fit_model(panel, "scgarch")
        parts = [
            garch_loglik(f.params, fit.innovations[:, j], f.sigma2_init)
            for j, f in enumerate(fit.garch_fits)
        ]
        assert fit.total_loglik == pytest.approx(sum(parts), abs=1e-8)

    def test_every_sigma_is_pd(self):
        fit = fit_model(causal_chain_panel(300, seed=2), "scgarch")
        np.linalg.cholesky(fit.cov_path.sigmas)  # raises if any step fails

    def test_likelihood_decomposition_identity(self):
        panel = causal_chain_panel(400, seed=5)
        fit = fit_model(panel, "scgarch")
        sig = fit.cov_path.sigmas
        y = panel.values
        direct = sum(
            np.log(np.linalg.det(sig[t])) + y[t] @ np.linalg.solve(sig[t], y[t])
            for t in range(panel.n)
        )
        assert direct == pytest.approx(-fit.total_loglik, rel=1e-6)

    def test_innovations_are_whitened(self):
        fit = fit_model(causal_chain_panel(2000, seed=11), "scgarch")
        corr = np.corrcoef(fit.innovations, rowvar=False)
        assert np.max(np.abs(corr[np.triu_indices(3, 1)])) < 0.15

    def test_permutation_contract(self):
        panel = causal_chain_panel(300, seed=13)
        perm = (2, 0, 1)
        fit_reordered = fit_model(panel, "scgarch", ScgarchConfig(), perm)
        fit_direct = fit_model(TimeSeriesPanel(panel.values[:, perm]), "scgarch")
        a = fit_reordered.cov_path.sigmas
        b = fit_direct.cov_path.sigmas
        for i in range(3):
            for j in range(3):
                np.testing.assert_allclose(a[:, perm[i], perm[j]], b[:, i, j],
                                           atol=1e-9)

    @pytest.mark.parametrize("ordering", [(0.5, 1.2, 2.0), (0.0, 1.0, 2.0), ("0", "1", "2")],
                             ids=["fractions", "whole-floats", "strings"])
    def test_rejects_non_integer_ordering(self, ordering):
        with pytest.raises(DimensionMismatch):
            fit_model(iid_panel(60, [1.0, 1.0, 1.0], seed=0), "cgarch", ordering=ordering)

    def test_accepts_numpy_integer_ordering(self):
        panel = iid_panel(60, [1.0, 1.0, 1.0], seed=0)
        fit = fit_model(panel, "cgarch", ordering=np.array([2, 0, 1]))
        assert fit.ordering == (2, 0, 1)
        assert all(type(k) is int for k in fit.ordering)

    def test_two_pass_runs(self):
        panel = constant_coefficient_panel(300, seed=21)
        fit = fit_model(panel, "scgarch", ScgarchConfig(two_pass=True))
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
        fit = fit_model(panel, "scgarch", config)
        assert len(calls) == 5
        np.testing.assert_array_equal(fit.t_path, t_path)
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

    @pytest.mark.parametrize("ordering, stage", [((1, 0), "garch"), ((0, 1), "kalman"),
                                                 ((0, 1), "static-mcd")])
    def test_overflowing_series_is_a_typed_failure(self, ordering, stage):
        # Column 2's squares overflow.  First in the ordering, its GARCH fit
        # has no finite candidate; second, its regression has no state
        # noise with a finite predictive likelihood, or, in cgarch, the
        # second moment is not positive definite.  No warning is emitted.
        eps, _ = simulate_garch(GarchParams(0.1, 0.1, 0.8), 200, seed=3)
        first = np.random.default_rng(0).standard_normal(200)
        panel = TimeSeriesPanel(np.column_stack([first, eps * 1e155]))
        model_name = "cgarch" if stage == "static-mcd" else "scgarch"
        with pytest.raises(PipelineError) as exc:
            fit_model(panel, model_name, TUNED, ordering)
        assert (exc.value.stage, exc.value.index) == (stage, 2)
        if stage == "garch":
            assert isinstance(exc.value.cause, DegenerateSeries)

    @pytest.mark.parametrize("config", [ScgarchConfig(), replace(TUNED, two_pass=True)],
                             ids=["fixed", "tuned-two-pass"])
    @pytest.mark.parametrize("scale", [2.0 ** -30, 2.0 ** 30], ids=["2^-30", "2^30"])
    def test_fit_does_not_depend_on_the_data_units(self, config, scale):
        # Scaling by a power of two is exact, so every floor that moves with
        # the data keeps the fitted path exactly proportional.
        panel = generate_sim2(Sim2Config(n=256, seed=0)).panel
        base = fit_model(panel, "scgarch", config).cov_path.sigmas
        scaled = fit_model(TimeSeriesPanel(scale * panel.values), "scgarch", config)
        np.testing.assert_array_equal(scaled.cov_path.sigmas, scale ** 2 * base)

    def test_rejects_short_panel(self):
        with pytest.raises(DimensionMismatch):
            fit_model(iid_panel(30, [1.0, 1.0], seed=0), "scgarch")


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
    a = fit_model(panel, "scgarch", unsorted)
    b = fit_model(panel, "scgarch", ScgarchConfig(state_noise=(1e-6, 1e-4, 1e-2)))
    np.testing.assert_array_equal(a.cov_path.sigmas, b.cov_path.sigmas)
    assert a.total_loglik == b.total_loglik


CONFIG_VALUES = st.one_of(st.just(5e-324), st.floats(0.0, 1e300))


@settings(max_examples=60, deadline=None)
@given(kappa=CONFIG_VALUES, grid=st.lists(CONFIG_VALUES, min_size=1, max_size=4))
def test_every_accepted_config_passes_the_first_prediction_check(kappa, grid):
    # The model's Kalman pass relies on this: it maps no kernel error.
    try:
        config = ScgarchConfig(kappa=kappa, state_noise=tuple(grid))
    except ValueError:
        reject()
    b = len(config.state_noise)
    for d in range(1, 8):
        eye = np.eye(d)
        _gain_filter(np.zeros((1, b)), np.zeros((1, b, d)), np.zeros(d),
                     config.kappa * eye, np.multiply.outer(config.state_noise, eye),
                     np.ones((1, b)))


class TestFitCgarch:
    def test_static_t_agrees_with_late_filtered_t(self):
        panel = constant_coefficient_panel(1000, phi=0.5, seed=8)
        static = fit_model(panel, "cgarch")
        dynamic = fit_model(panel, "scgarch", ScgarchConfig(state_noise=(0.0,)))
        phi_static = -static.t_path[0, 1, 0]
        phi_late = -dynamic.t_path[-1, 1, 0]
        assert abs(phi_static - phi_late) < 0.05
        # constant-T contract: every step carries the same matrix
        assert np.ptp(static.t_path, axis=0).max() == 0.0

    def test_p1_matches_scgarch(self):
        panel = iid_panel(400, [1.5], seed=14)
        a, b = fit_model(panel, "cgarch"), fit_model(panel, "scgarch")
        np.testing.assert_allclose(a.cov_path.sigmas, b.cov_path.sigmas, rtol=1e-12)

    def test_scgarch_tracks_better_on_sine_design(self):
        wins = 0
        reps = 100
        for rep in range(reps):
            data = generate_sim2(Sim2Config(seed=5000 + rep))
            truth = data.truth.correlations()[:, 1, 0]
            sc = fit_model(data.panel, "scgarch").cov_path.correlations()[:, 1, 0]
            cg = fit_model(data.panel, "cgarch").cov_path.correlations()[:, 1, 0]
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
        for mode in ("exhaustive", "beam"):
            assert order_by_bic(panel, model="cgarch", mode=mode).ordering == (0, 1, 2)

    def test_exchangeable_columns_score_alike(self):
        # same-law columns: the two orderings differ only by noise
        panel = iid_panel(400, [1.0, 1.0], seed=2)
        scores = [
            bic(fit_model(panel, "scgarch", ScgarchConfig(), perm).total_loglik,
                panel.n, panel.p)
            for perm in [(0, 1), (1, 0)]
        ]
        assert abs(scores[0] - scores[1]) < 0.05 * abs(scores[0])

    def test_exhaustive_limit(self, monkeypatch):
        # p = 9 is above EXHAUSTIVE_LIMIT: refused before any fit.
        def no_fit(*args):
            raise AssertionError("a column was fitted")
        monkeypatch.setattr(model, "_fit_columns", no_fit)
        panel = iid_panel(100, np.ones(9), seed=0)
        with pytest.raises(TooManyPermutations, match="bic-beam"):
            order_by_bic(panel)

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
    # with predecessors, which the second pass re-filters and refits.  At
    # p = 6 the beam fits the pairs of every set of sizes 0 to 2 (6 + 30 +
    # 60), of 16 of the 20 sets of size 3 (48), and of every larger set (30
    # + 6), against 192 for the exhaustive search.
    @pytest.mark.parametrize("model_name, two_pass, mode, p, expected", [
        pytest.param("scgarch", False, "exhaustive", 4, 32, id="scgarch-False-32"),
        pytest.param("cgarch", False, "exhaustive", 4, 32, id="cgarch-False-32"),
        pytest.param("scgarch", True, "exhaustive", 4, 32 + 28, id="scgarch-True-60"),
        pytest.param("scgarch", False, "beam", 6, 180, id="scgarch-beam-180"),
    ])
    def test_search_fits_each_column_set_once(self, monkeypatch, model_name,
                                              two_pass, mode, p, expected):
        calls = []

        def counting_fit(eps):
            calls.append(1)
            return garch_fit(eps)

        monkeypatch.setattr(model, "garch_fit", counting_fit)
        panel = mixed_garch_panel(100, p, seed=1)
        order_by_bic(panel, ScgarchConfig(two_pass=two_pass), model=model_name, mode=mode)
        assert len(calls) == expected

    # One Kalman pass per set size, the one-predecessor regressions padded
    # into the two-predecessor pass when one call fits both (not in the
    # beam, which fits each size in its own call), and as many again with
    # two_pass.
    @pytest.mark.parametrize("p, mode, two_pass, widths", [
        (3, "fixed", False, [2]),
        (3, "fixed", True, [2, 2]),
        (4, "exhaustive", False, [2, 3]),
        (4, "exhaustive", True, [2, 2, 3, 3]),
        (2, "fixed", False, [1]),
        (4, "beam", False, [1, 2, 3]),
    ])
    def test_kalman_passes_per_fit(self, monkeypatch, p, mode, two_pass, widths):
        calls = []

        def counting_filter(y, x_panel, *args, **kwargs):
            calls.append(x_panel.shape[2])
            return _gain_filter(y, x_panel, *args, **kwargs)

        monkeypatch.setattr(model, "_gain_filter", counting_filter)
        panel = mixed_garch_panel(100, p, seed=1)
        config = replace(TUNED, two_pass=two_pass)
        if mode == "fixed":
            fit_model(panel, "scgarch", config)
        else:
            order_by_bic(panel, config, mode=mode)
        assert calls == widths

    @pytest.mark.parametrize("config", [
        ScgarchConfig(), TUNED, replace(TUNED, two_pass=True),
    ], ids=["fixed", "tuned", "tuned-two-pass"])
    def test_padded_one_predecessor_fits_match_unpadded(self, config):
        # Filtered alone, the one-predecessor pairs make a pass of width 1;
        # with the two-predecessor pairs they are padded to width 2.
        panel = mixed_garch_panel(150, 4, seed=3)
        ones = [pair for pair in all_pairs(4) if len(pair[1]) == 1]
        alone = model._fit_columns(panel.values, "scgarch", config, ones)
        padded = model._fit_columns(panel.values, "scgarch", config, all_pairs(4))
        for pair in ones:
            (coefs, eps, fit), want = padded[pair], alone[pair]
            assert coefs.shape == (150, 1)
            np.testing.assert_array_equal(coefs, want[0])
            np.testing.assert_array_equal(eps, want[1])
            np.testing.assert_array_equal(fit.sigma2_path, want[2].sigma2_path)
            assert fit.loglik == want[2].loglik

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

    @pytest.mark.parametrize("model_name, config, mode, p", [
        ("scgarch", ScgarchConfig(), "exhaustive", 4),
        ("scgarch", replace(TUNED, two_pass=True), "exhaustive", 4),
        ("cgarch", ScgarchConfig(), "exhaustive", 4),
        ("scgarch", TUNED, "beam", 6),
        ("scgarch", ScgarchConfig(), "exhaustive", 6),
        ("scgarch", replace(TUNED, two_pass=True), "exhaustive", 6),
    ], ids=["scgarch-fixed", "scgarch-tuned-two-pass", "cgarch", "scgarch-beam",
            "scgarch-fixed-p6", "scgarch-tuned-two-pass-p6"])
    def test_search_pairs_add_up_to_the_final_fit(self, model_name, config, mode, p):
        # The search and the final fit share one column fit, so the pairs
        # along the chosen ordering add up to the final fit exactly, and
        # the fit the search returns is the fit of its ordering, bit for bit,
        # though at p = 6 the search filters up to 90 regressions per pass
        # and the final fit one or two.
        panel = mixed_garch_panel(150, p, seed=6)
        fitted = model._fit_columns(panel.values, model_name, config, all_pairs(p))
        result = order_by_bic(panel, config, model=model_name, mode=mode)
        chosen = result.ordering
        assert chosen != tuple(range(p))
        path_sum = sum(fitted[(j, frozenset(chosen[:k]))][2].loglik
                       for k, j in enumerate(chosen))
        final = fit_model(panel, model_name, config, chosen)
        assert path_sum == final.total_loglik == result.total_loglik
        np.testing.assert_array_equal(result.cov_path.sigmas, final.cov_path.sigmas)
        np.testing.assert_array_equal(result.t_path, final.t_path)
        np.testing.assert_array_equal(result.innovations, final.innovations)
        for got, want in zip(result.garch_fits, final.garch_fits, strict=True):
            np.testing.assert_array_equal(got.sigma2_path, want.sigma2_path)

    @pytest.mark.parametrize("p", [4, 5, 6])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_beam_picks_the_best_ordering_its_pairs_allow(self, monkeypatch, p, seed):
        searched, fit_columns = set(), model._fit_columns

        def recording_fit_columns(y, model_name, config, pairs):
            searched.update(pairs)
            return fit_columns(y, model_name, config, pairs)

        panel = mixed_garch_panel(150, p, seed=seed)
        fitted = fit_columns(panel.values, "scgarch", ScgarchConfig(), all_pairs(p))
        monkeypatch.setattr(model, "_fit_columns", recording_fit_columns)
        result = order_by_bic(panel, mode="beam")
        # Below p = 6 the beam keeps every set; at p = 6 it drops 4 of size 3.
        assert len(searched) == (180 if p == 6 else len(fitted))
        totals = {perm: sum(fitted[pair][2].loglik for pair in model._ordering_pairs(perm))
                  for perm in itertools.permutations(range(p))
                  if set(model._ordering_pairs(perm)) <= searched}
        top = sorted(totals.values())
        assert len(top) > 1 and top[-1] - top[-2] > 1e-6  # the argmax is well defined
        assert result.ordering == max(totals, key=totals.get)
        assert result.total_loglik == pytest.approx(top[-1], rel=1e-12)

    def test_unknown_mode_is_rejected(self):
        with pytest.raises(ValueError, match="unknown ordering mode"):
            order_by_bic(causal_chain_panel(200, seed=3), mode="sampled")

    def test_search_reports_covariances_in_one_contiguous_array(self):
        # The search's ordering is not the panel's, so its covariance path
        # is permuted back, into one C-contiguous array that
        # ``write_cov_path`` reshapes without a copy.
        result = order_by_bic(mixed_garch_panel(150, 4, seed=6))
        assert result.ordering != (0, 1, 2, 3)
        assert result.cov_path.sigmas.flags.c_contiguous

    def test_best_ordering_breaks_exact_ties_lexicographically(self, monkeypatch):
        # (1, 0, 2) and (2, 0, 1) both total 5.0; everything else is lower.
        # With every pair at 0.0, all six orderings tie.
        table = {(1, frozenset()): 2.0, (2, frozenset()): 2.0,
                 (0, frozenset({1})): 3.0, (0, frozenset({2})): 3.0}
        fit_columns = model._fit_columns

        def scored_by(scores):
            def scored_fit_columns(y, model_name, config, pairs):
                fitted = fit_columns(y, model_name, config, pairs)
                return {pair: (coefs, eps, replace(fit, loglik=scores.get(pair, 0.0)))
                        for pair, (coefs, eps, fit) in fitted.items()}
            return scored_fit_columns

        panel = mixed_garch_panel(100, 3, seed=0)
        for scores, expected in [(table, (1, 0, 2)), ({}, (0, 1, 2))]:
            monkeypatch.setattr(model, "_fit_columns", scored_by(scores))
            for mode in ("exhaustive", "beam"):
                result = order_by_bic(panel, model="cgarch", mode=mode)
                assert result.ordering == expected
                assert result.total_loglik == (5.0 if scores else 0.0)

    def test_cgarch_search_keeps_static_pd_check(self):
        col = np.random.default_rng(4).standard_normal(100)
        with pytest.raises(PipelineError) as exc:
            order_by_bic(TimeSeriesPanel(np.column_stack([col, col])), model="cgarch")
        assert exc.value.stage == "static-mcd"

    def test_bic_formula(self):
        assert bic(-100.0, 50, 3) == pytest.approx(200.0 + 9 * np.log(50))


class TestContainers:
    def test_covariance_path_correlations(self):
        sig = np.array([[[4.0, 2.0], [2.0, 9.0]]])
        corr = CovariancePath(sig).correlations()
        np.testing.assert_allclose(corr[0], [[1.0, 2.0 / 6.0], [2.0 / 6.0, 1.0]])

    def test_correlations_are_bitwise_symmetric_with_unit_diagonal(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((200, 5, 5)) * rng.uniform(0.1, 10.0, (200, 5, 1))
        sig = a @ a.transpose(0, 2, 1)
        sig = sig + sig.transpose(0, 2, 1)
        assert np.array_equal(sig.view(np.int64), sig.transpose(0, 2, 1).view(np.int64))
        corr = CovariancePath(sig).correlations()
        assert np.array_equal(corr.view(np.int64), corr.transpose(0, 2, 1).view(np.int64))
        assert np.all(np.diagonal(corr, axis1=1, axis2=2) == 1.0)

    def test_fit_model_dispatch(self):
        panel = iid_panel(100, [1.0, 1.0], seed=1)
        assert fit_model(panel, "cgarch").model == "cgarch"
        with pytest.raises(ValueError):
            fit_model(panel, "unknown")


def test_repeated_variable_in_ordering_is_rejected():
    with pytest.raises(DimensionMismatch, match="not a permutation"):
        fit_model(iid_panel(60, [1.0, 1.0, 1.0], seed=0), "cgarch", ordering=(0, 0, 1))


@pytest.mark.parametrize("call, error, message", [
    (lambda: garch_filter(GarchParams(0.1, 0.1, 0.8), [], 1.0),
     InvalidParameters, "at least one observation"),
    (lambda: mcd_decompose(np.eye(2, 3)), DimensionMismatch, "square matrix"),
    (lambda: mcd_decompose(np.ones(3)), DimensionMismatch, "square matrix"),
    (lambda: mcd_reconstruct(np.eye(2, 3), np.ones(2)), DimensionMismatch,
     "square matrices"),
    (lambda: TimeSeriesPanel(np.ones(5)), DimensionMismatch, "2-d"),
    (lambda: TimeSeriesPanel(np.ones((5, 2, 2))), DimensionMismatch, "2-d"),
    (lambda: CovariancePath(np.ones((4, 2, 3))), DimensionMismatch, "n, p, p"),
    (lambda: CovariancePath(np.eye(2)), DimensionMismatch, "n, p, p"),
], ids=["garch_filter-empty", "mcd_decompose-non-square", "mcd_decompose-1d",
        "mcd_reconstruct-non-square", "panel-1d", "panel-3d", "cov_path-non-square",
        "cov_path-2d"])
def test_input_guard_raises_typed_error(call, error, message):
    with pytest.raises(error, match=message):
        call()
