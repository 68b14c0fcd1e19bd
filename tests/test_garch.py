import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scgarch import garch
from scgarch.exceptions import DegenerateSeries, InvalidParameters, SeriesTooShort
from scgarch.garch import (
    _GRID_BETAS,
    STATIONARITY_MARGIN,
    GarchParams,
    _ar1,
    _nll_and_derivatives,
    garch_filter,
    garch_fit,
    garch_loglik,
    simulate_garch,
)
from scgarch.model import DEFAULT_TUNE_GRID, ScgarchConfig, TimeSeriesPanel, fit_model
from scgarch.simulate import Sim2Config, generate_sim2

# garch_fit(...).loglik on the scgarch innovations of fit_model with the default
# tuning grid, generate_sim2 seeds 0-5, three columns each, as computed by
# the logistic-space BFGS fitter this module replaced.  The current fitter
# must never do worse on them.
SIM2_BFGS_LOGLIK = np.array([
    -1729.7304573909773, -1950.599284087895, -2308.282692225308,  # seed 0
    -1723.5405871886278, -1951.855310156564, -2293.3386850375446,  # seed 1
    -1721.0870988154002, -2056.292056284041, -2242.563989631476,  # seed 2
    -1744.3267828701764, -2012.8967756751604, -2292.9426113185355,  # seed 3
    -1695.9733602557205, -2063.9839970553917, -2199.288662391466,  # seed 4
    -1702.8111613756892, -2056.344267557526, -2237.9571502810036,  # seed 5
])


class TestParams:
    def test_scalar_coercion(self):
        p = GarchParams(0.1, 0.1, 0.8)
        assert p.alpha == (0.1,) and p.beta == (0.8,)
        assert p.persistence == pytest.approx(0.9)
        assert p.unconditional_variance == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(InvalidParameters):
            GarchParams(0.0, 0.1, 0.8)
        with pytest.raises(InvalidParameters):
            GarchParams(0.1, -0.1, 0.8)
        with pytest.raises(InvalidParameters):
            GarchParams(0.1, 0.1, (0.4, -0.2))

    def test_only_order_one_one(self):
        assert GarchParams(0.1, (0.1,), [0.8]).beta == (0.8,)
        with pytest.raises(InvalidParameters):
            GarchParams(0.1, (0.1, 0.05), 0.8)
        with pytest.raises(InvalidParameters):
            GarchParams(0.1, 0.1, ())


class TestFilter:
    def test_no_feedback_is_constant(self):
        s2 = garch_filter(GarchParams(0.5, 0.0, 0.0), np.ones(5), sigma2_init=2.0)
        np.testing.assert_array_equal(s2, np.full(5, 0.5))

    def test_one_step_substitution(self):
        # with unit presample terms: 0.1 + 0.1*1 + 0.8*1 = 1.0
        s2 = garch_filter(GarchParams(0.1, 0.1, 0.8), np.array([1.0, 1.0]), 1.0)
        np.testing.assert_allclose(s2, [1.0, 1.0])

    def test_hand_recursion(self):
        s2 = garch_filter(GarchParams(0.05, 0.1, 0.85), np.array([1.0, -2.0, 0.0]), 1.0)
        np.testing.assert_allclose(s2, [1.0, 1.0, 1.30], atol=1e-15)

    def test_rejects_bad_init(self):
        with pytest.raises(InvalidParameters):
            garch_filter(GarchParams(0.1, 0.1, 0.8), np.ones(3), 0.0)


def _loop_ar1(x, beta, first=0.0):
    y = np.empty_like(x)
    prev = np.full(x.shape[:-1], first)
    for t in range(x.shape[-1]):
        prev = x[..., t] + beta * prev
        y[..., t] = prev
    return y


class TestAr1:
    # The LAPACK solve may round each step once where this loop rounds
    # twice, and its bits depend on the BLAS kernel the CPU selects, so
    # the tolerance is relative.
    BETAS = np.unique(np.r_[0.0, _GRID_BETAS, 1.0 - 1e-6])

    @pytest.mark.parametrize("n", [1, 2, 2048])
    @pytest.mark.parametrize("rows", [None, 2, 3])
    def test_matches_loop_in_callers_buffer(self, n, rows):
        rng = np.random.default_rng(n)
        first = 1.7 if rows is None else 0.0
        for beta in self.BETAS:
            x = rng.uniform(0.5, 2.0, n if rows is None else (rows, n))
            buf = x.copy()
            assert _ar1(buf, beta, first) is buf
            np.testing.assert_allclose(buf, _loop_ar1(x, beta, first), rtol=1e-13,
                                       err_msg=f"beta = {beta}")

    def test_presample_term_reaches_every_step(self):
        np.testing.assert_array_equal(_ar1(np.zeros(3), 0.5, 8.0), [4.0, 2.0, 1.0])

    def test_view_that_cannot_be_solved_in_place_raises(self):
        with pytest.raises(np.linalg.LinAlgError):
            _ar1(np.ones((4, 3)).T, 0.5)
        with pytest.raises(np.linalg.LinAlgError):
            _ar1(np.ones(8)[::2], 0.5)

    def test_overflowing_driver_propagates_without_warning(self):
        x = np.array([1.0, 1e308, 1e308, 1.0])
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            _ar1(x, 0.9)
        assert np.isfinite(x[:2]).all() and np.isposinf(x[2:]).all()


@settings(max_examples=80, deadline=None)
@given(
    omega=st.floats(1e-6, 5.0),
    alpha=st.floats(0.0, 1.5),
    beta=st.floats(0.0, 1.5),
    seed=st.integers(0, 2**32 - 1),
)
def test_filter_positive_for_valid_params(omega, alpha, beta, seed):
    rng = np.random.default_rng(seed)
    eps = rng.uniform(-1e3, 1e3, size=40)
    s2 = garch_filter(GarchParams(omega, alpha, beta), eps, 1.0)
    assert np.all(s2 > 0)


class TestLoglik:
    def test_zero_data_unit_variance(self):
        assert garch_loglik(GarchParams(1.0, 0.0, 0.0), np.zeros(2), 1.0) == 0.0

    def test_single_observation(self):
        assert garch_loglik(GarchParams(1.0, 0.0, 0.0), np.array([1.0]), 1.0) == -1.0

    def test_hand_recursion_value(self):
        # s2 = (1, 1), eps^2 = (1, 4): -[(log 1 + 1) + (log 1 + 4)] = -5
        ll = garch_loglik(GarchParams(0.05, 0.1, 0.85), np.array([1.0, -2.0]), 1.0)
        assert ll == pytest.approx(-5.0, abs=1e-12)


class TestGradient:
    @staticmethod
    def _series():
        eps, _ = simulate_garch(GarchParams(0.1, 0.1, 0.8), 500, seed=1)
        init = float(np.var(eps))
        e2 = eps * eps
        return eps, init, e2, np.r_[init, e2[:-1]]

    @staticmethod
    def _points(seed):
        rng = np.random.default_rng(seed)
        for _ in range(20):
            s = rng.uniform(0.2, 0.98)
            u = rng.uniform(0.05, 0.95)
            yield np.array([rng.uniform(0.02, 1.0), s * u, s * (1 - u)])

    def test_natural_gradient_matches_central_differences(self):
        eps, init, e2, e2_lag = self._series()

        def nll(theta):
            return -garch_loglik(GarchParams(*theta), eps, init)

        for theta in self._points(5):
            _, grad, _, _ = _nll_and_derivatives(theta, e2, e2_lag, init)
            for k in range(3):
                step = np.zeros(3)
                step[k] = 1e-6 * theta[k]
                fd = (nll(theta + step) - nll(theta - step)) / (2 * step[k])
                assert grad[k] == pytest.approx(fd, rel=1e-4, abs=1e-8)

    def test_information_is_outer_product_of_filter_differences(self):
        eps, init, e2, e2_lag = self._series()
        for theta in self._points(6):
            _, _, info, _ = _nll_and_derivatives(theta, e2, e2_lag, init)
            s2 = garch_filter(GarchParams(*theta), eps, init)
            ds2 = np.empty((3, eps.shape[0]))
            for k in range(3):
                step = np.zeros(3)
                step[k] = 1e-6 * theta[k]
                ds2[k] = (garch_filter(GarchParams(*(theta + step)), eps, init)
                          - garch_filter(GarchParams(*(theta - step)), eps, init)) / (2 * step[k])
            np.testing.assert_allclose(info, (ds2 / s2 ** 2) @ ds2.T, rtol=1e-6)

    def test_hessian_matches_differences_of_the_gradient(self):
        _, init, e2, e2_lag = self._series()
        for theta in self._points(7):
            _, _, _, hess = _nll_and_derivatives(theta, e2, e2_lag, init)
            fd = np.empty((3, 3))
            for k in range(3):
                step = np.zeros(3)
                step[k] = 1e-6 * theta[k]
                fd[:, k] = (_nll_and_derivatives(theta + step, e2, e2_lag, init)[1]
                            - _nll_and_derivatives(theta - step, e2, e2_lag, init)[1]) / (2 * step[k])
            np.testing.assert_allclose(hess, fd, rtol=1e-5, atol=1e-6 * np.abs(fd).max())


@pytest.fixture(scope="module")
def sim2_fits():
    config = ScgarchConfig(state_noise=DEFAULT_TUNE_GRID)
    fits = []
    for seed in range(6):
        panel = generate_sim2(Sim2Config(seed=seed)).panel
        fits += fit_model(panel, "scgarch", config).garch_fits
    return fits


class TestFit:
    def test_never_below_bfgs_on_sim2_innovations(self, sim2_fits):
        logliks = np.array([fit.loglik for fit in sim2_fits])
        assert np.all(logliks >= SIM2_BFGS_LOGLIK - 1e-6)

    def test_boundary_names_the_face(self, sim2_fits):
        for fit in sim2_fits:
            alpha, beta = fit.params.alpha[0], fit.params.beta[0]
            expected = {(True, True): "constant", (True, False): "alpha=0",
                        (False, True): "beta=0", (False, False): "none"}
            assert fit.boundary == expected[(alpha == 0.0, beta == 0.0)]
            assert fit.converged

    def test_flat_ridge_lands_on_alpha_zero(self, sim2_fits):
        # generate_sim2 seed 1, series 2: BFGS stopped at alpha = 6.7e-3,
        # beta = 0.17 and reported convergence
        fit = sim2_fits[5]
        assert fit.params.alpha[0] == 0.0
        assert fit.boundary == "alpha=0" and fit.converged
        assert fit.loglik >= SIM2_BFGS_LOGLIK[5] + 0.04

    # A fitter that solved the alpha = 0 face only when an interior run
    # ended on a bound stopped at an interior local optimum on these
    # series, at -1721.0871, -1957.6806 and -1766.818.
    @pytest.mark.parametrize("seed, column, target", [
        (2, 0, -1720.64), (6, 1, -1957.671), (9, 0, -1766.68),
    ])
    def test_alpha_zero_optimum_beyond_an_interior_one(self, seed, column, target):
        config = ScgarchConfig(state_noise=DEFAULT_TUNE_GRID)
        panel = generate_sim2(Sim2Config(seed=seed)).panel
        fit = fit_model(panel, "scgarch", config).garch_fits[column]
        assert fit.boundary == "alpha=0" and fit.converged
        assert fit.loglik >= target

    def test_arch_process_lands_on_beta_zero(self):
        eps, _ = simulate_garch(GarchParams(0.5, 0.4, 0.0), 1000, seed=2)
        fit = garch_fit(eps)
        assert fit.boundary == "beta=0" and fit.converged
        assert fit.loglik >= -725.8425461810566 - 1e-6  # a dedicated beta = 0 run's value

    def test_trending_variance_lands_on_persistence_bound(self):
        rng = np.random.default_rng(0)
        eps = rng.standard_normal(300) * np.linspace(0.5, 3.0, 300)
        fit = garch_fit(eps)
        assert fit.boundary == "alpha+beta=1" and fit.converged
        assert fit.params.persistence == pytest.approx(1.0 - STATIONARITY_MARGIN, abs=1e-12)
        assert fit.params.alpha[0] > 0 and fit.params.beta[0] > 0
        assert fit.loglik >= -628.8478529230226 - 1e-6  # the BFGS fitter's value

    def test_constant_variance(self):
        eps = np.array([-1.8172, -1.17278, 0.144802, 0.677103, 0.833362, -0.405274,
                        0.385397, 1.35427, 0.789756, 1.05318, 0.662829, -0.470152,
                        0.5486, 1.52535, 0.474244, -1.1491, -0.708575, 0.682958,
                        1.15277, 1.2951])
        fit = garch_fit(eps)
        assert fit.boundary == "constant" and fit.converged
        assert fit.params.omega == pytest.approx(np.mean(eps * eps), rel=1e-12)

    def test_converged_only_where_kkt_holds(self, monkeypatch):
        eps, _ = simulate_garch(GarchParams(0.1, 0.1, 0.8), 1000, seed=3)
        assert garch_fit(eps).converged
        # the runs stop on rounding short of a gradient tolerance this tight
        monkeypatch.setattr(garch, "_GTOL", 1e-15)
        assert not garch_fit(eps).converged

    def test_tight_tolerance_still_stops_near_the_optimum(self, monkeypatch):
        # Near the optimum Newton steps are full and gain only rounding; the
        # stall rule ends the run on the second such step (10 iterations).
        eps, _ = simulate_garch(GarchParams(0.1, 0.1, 0.8), 1000, seed=3)
        monkeypatch.setattr(garch, "_GTOL", 1e-12)
        assert garch_fit(eps).iterations <= 30

    # Stops on the step size ended these alpha = 0 runs near beta = 1
    # unconverged, at -3307.320728351021, -1745.0997791994105 and
    # -2046.309238754283: the third run's first step is full, moves less
    # than 1e-9 and gains only rounding, and the steps after it still climb.
    @pytest.mark.parametrize("eps, target", [
        (lambda: fit_model(TimeSeriesPanel(np.random.default_rng(6).standard_normal(
            (2000, 3)) * np.sqrt([1.0, 2.0, 0.5])), "scgarch").innovations[:, 1],
         -3307.3207),
        (lambda: generate_sim2(Sim2Config(seed=5043)).panel.values[:, 0], -1745.099778),
        (lambda: (np.random.default_rng(11).standard_normal((2000, 3))
                  * np.sqrt([1.0, 2.0, 0.5]))[:, 0], -2046.30923871065),
    ])
    def test_short_steps_that_still_gain_do_not_stop_a_run(self, eps, target):
        fit = garch_fit(eps())
        assert fit.boundary == "alpha=0" and fit.converged
        assert fit.loglik >= target

    def test_recovers_simulated_parameters(self):
        errs = []
        for seed in range(10):
            eps, _ = simulate_garch(GarchParams(0.1, 0.1, 0.8), 2000, seed=seed)
            fit = garch_fit(eps)
            errs.append([
                abs(fit.params.omega - 0.1),
                abs(fit.params.alpha[0] - 0.1),
                abs(fit.params.beta[0] - 0.8),
            ])
        med = np.median(np.asarray(errs), axis=0)
        assert np.all(med < 0.1)

    def test_iid_data_recovers_unconditional_variance(self):
        ratios = []
        for seed in range(11):
            rng = np.random.default_rng(100 + seed)
            eps = rng.normal(0.0, np.sqrt(2.5), size=2000)
            fit = garch_fit(eps)
            ratios.append(fit.params.unconditional_variance / 2.5)
        assert abs(np.median(ratios) - 1.0) < 0.15

    def test_loglik_field_is_consistent(self):
        eps, _ = simulate_garch(GarchParams(0.2, 0.05, 0.9), 300, seed=7)
        fit = garch_fit(eps)
        assert fit.loglik == pytest.approx(
            garch_loglik(fit.params, eps, fit.sigma2_init), abs=1e-10
        )
        assert np.all(fit.sigma2_path > 0)
        assert fit.params.persistence <= 1.0 - 1e-7

    def test_fit_improves_on_every_start(self):
        eps, _ = simulate_garch(GarchParams(0.1, 0.1, 0.8), 1000, seed=3)
        fit = garch_fit(eps)
        for alpha0, beta0 in ((0.05, 0.90), (0.10, 0.80), (0.20, 0.60)):
            start = GarchParams(fit.sigma2_init * (1.0 - alpha0 - beta0), alpha0, beta0)
            assert fit.loglik >= garch_loglik(start, eps, fit.sigma2_init)

    def test_degenerate_series(self):
        with pytest.raises(DegenerateSeries):
            garch_fit(np.full(100, 3.0))

    def test_series_too_short(self):
        with pytest.raises(SeriesTooShort):
            garch_fit(np.arange(10.0))

    @pytest.mark.parametrize("scale", [1e155, 1e-160])
    def test_no_finite_likelihood_is_degenerate(self, scale):
        # finite values whose squares overflow or underflow: no candidate
        # has a finite likelihood
        eps, _ = simulate_garch(GarchParams(0.1, 0.1, 0.8), 300, seed=1)
        with pytest.raises(DegenerateSeries, match="not finite"):
            garch_fit(eps * scale)


class TestSimulate:
    def test_long_run_variance(self):
        params = GarchParams(0.05, 0.1, 0.85)
        _, s2 = simulate_garch(params, 100_000, seed=123)
        assert abs(s2.mean() - params.unconditional_variance) < 0.05

    def test_draws_match_recorded_values(self):
        # eps[-1], s2[-1] and sum(eps), recorded from the general-order
        # recursion the (1,1) loop replaced: the draws are bit-identical
        recorded = {
            0: (-1.743966425493618, 2.0393231094684854, -5.746985140125256),
            1: (0.3129118599889853, 0.9278026676606037, -8.210996188232684),
            2: (0.8750691101993368, 1.3251926342203786, -2.0660150198426366),
        }
        for seed, (last_eps, last_s2, total) in recorded.items():
            eps, s2 = simulate_garch(GarchParams(0.1, 0.1, 0.8), 50, seed=seed)
            assert (eps[-1], s2[-1], eps.sum()) == (last_eps, last_s2, total)

    def test_deterministic(self):
        a = simulate_garch(GarchParams(0.1, 0.1, 0.8), 100, seed=5)
        b = simulate_garch(GarchParams(0.1, 0.1, 0.8), 100, seed=5)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])


def test_fit_rejects_a_missing_value():
    eps, _ = simulate_garch(GarchParams(0.1, 0.1, 0.8), 200, seed=1)
    eps[5] = np.nan
    with pytest.raises(InvalidParameters, match="non-finite"):
        garch_fit(eps)


def test_unit_persistence_has_no_unconditional_variance():
    with pytest.raises(InvalidParameters, match="persistence < 1"):
        GarchParams(0.1, 0.5, 0.5).unconditional_variance
