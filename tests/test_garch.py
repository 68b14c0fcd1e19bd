import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scgarch.exceptions import DegenerateSeries, InvalidParameters, SeriesTooShort
from scgarch.garch import (
    _FIT_STARTS,
    GarchParams,
    _neg_loglik_and_grad,
    _to_unconstrained,
    garch_filter,
    garch_fit,
    garch_loglik,
    simulate_garch,
)


class TestParams:
    def test_scalar_coercion(self):
        p = GarchParams(0.1, 0.1, 0.8)
        assert p.alpha == (0.1,) and p.beta == (0.8,)
        assert p.arch_order == p.garch_order == 1
        assert p.persistence == pytest.approx(0.9)
        assert p.unconditional_variance == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(InvalidParameters):
            GarchParams(0.0, 0.1, 0.8)
        with pytest.raises(InvalidParameters):
            GarchParams(0.1, -0.1, 0.8)
        with pytest.raises(InvalidParameters):
            GarchParams(0.1, 0.1, (0.4, -0.2))


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

    def test_general_order_matches_loop(self):
        # the (1,1) fast path must agree with the generic recursion
        rng = np.random.default_rng(0)
        eps = rng.standard_normal(50)
        p11 = GarchParams(0.2, 0.15, 0.7)
        fast = garch_filter(p11, eps, 1.3)
        slow = garch_filter(GarchParams(0.2, (0.15,), (0.7, 0.0)), eps, 1.3)
        np.testing.assert_allclose(fast, slow[: len(fast)], atol=1e-12)

    def test_rejects_bad_init(self):
        with pytest.raises(InvalidParameters):
            garch_filter(GarchParams(0.1, 0.1, 0.8), np.ones(3), 0.0)


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
    def test_matches_central_differences(self):
        rng = np.random.default_rng(42)
        eps, _ = simulate_garch(GarchParams(0.1, 0.1, 0.8), 500, seed=1)
        init = float(np.var(eps))
        e2 = eps * eps
        e2_lag = np.r_[init, e2[:-1]]
        h = 1e-6
        for _ in range(20):
            omega = rng.uniform(0.02, 1.0)
            s = rng.uniform(0.2, 0.98)
            u = rng.uniform(0.05, 0.95)
            z = _to_unconstrained(omega, s * u, s * (1 - u))
            _, grad = _neg_loglik_and_grad(z, eps, e2, e2_lag, init)
            for k in range(3):
                zp, zm = z.copy(), z.copy()
                zp[k] += h
                zm[k] -= h
                fp, _ = _neg_loglik_and_grad(zp, eps, e2, e2_lag, init)
                fm, _ = _neg_loglik_and_grad(zm, eps, e2, e2_lag, init)
                fd = (fp - fm) / (2 * h)
                assert grad[k] == pytest.approx(fd, rel=1e-4, abs=1e-8)


class TestFit:
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
        for alpha0, beta0 in _FIT_STARTS:
            start = GarchParams(fit.sigma2_init * (1.0 - alpha0 - beta0), alpha0, beta0)
            assert fit.loglik >= garch_loglik(start, eps, fit.sigma2_init)

    def test_degenerate_series(self):
        with pytest.raises(DegenerateSeries):
            garch_fit(np.full(100, 3.0))

    def test_series_too_short(self):
        with pytest.raises(SeriesTooShort):
            garch_fit(np.arange(10.0))

    def test_unsupported_order(self):
        with pytest.raises(ValueError):
            garch_fit(np.random.default_rng(0).standard_normal(100), order=(2, 1))


class TestSimulate:
    def test_long_run_variance(self):
        params = GarchParams(0.05, 0.1, 0.85)
        _, s2 = simulate_garch(params, 100_000, seed=123)
        assert abs(s2.mean() - params.unconditional_variance) < 0.05

    def test_deterministic(self):
        a = simulate_garch(GarchParams(0.1, 0.1, 0.8), 100, seed=5)
        b = simulate_garch(GarchParams(0.1, 0.1, 0.8), 100, seed=5)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])
