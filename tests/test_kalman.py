from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kalman_oracle import kalman_predict, kalman_update
from scgarch.exceptions import (
    DimensionMismatch,
    NonPositiveMeasurementVariance,
    SingularPrediction,
)
from scgarch.kalman import (
    KalmanConfig,
    _gain_filter,
    filter_regression,
    tune_state_noise,
)


def gain_form_update(phi_pred, p_pred, x, y, meas_var):
    """Oracle: the classic Kalman-gain update, algebraically equivalent to
    the information-form ``kalman_update``."""
    s = float(x @ p_pred @ x) + meas_var
    k = (p_pred @ x) / s
    phi = phi_pred + k * (y - float(x @ phi_pred))
    p = (np.eye(len(x)) - np.outer(k, x)) @ p_pred
    return phi, 0.5 * (p + p.T)


def scalar_cfg(phi0=0.0, p0=1.0, q=1.0, meas_var=1.0):
    return KalmanConfig(1, [phi0], [[p0]], [[q]], meas_var)


class TestPredict:
    def test_scalar(self):
        cfg = scalar_cfg(q=1.0)
        phi, p = kalman_predict(np.array([0.5]), np.array([[1.0]]), cfg)
        assert phi[0] == 0.5
        assert p[0, 0] == 2.0

    def test_zero_state_noise_keeps_covariance(self):
        cfg = scalar_cfg(q=0.0)
        _, p = kalman_predict(np.array([0.5]), np.array([[1.7]]), cfg)
        assert p[0, 0] == 1.7

    def test_two_dim(self):
        cfg = KalmanConfig(2, np.zeros(2), np.eye(2), 0.1 * np.eye(2), 1.0)
        phi, p = kalman_predict(np.array([1.0, 2.0]), np.eye(2), cfg)
        np.testing.assert_array_equal(phi, [1.0, 2.0])
        np.testing.assert_allclose(p, 1.1 * np.eye(2))

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            kalman_predict(np.zeros(2), np.eye(2), scalar_cfg())


class TestUpdate:
    def test_scalar_hand_example(self):
        # prec = 1/2, posterior precision 3/2 -> P = 2/3, phi = 2/3 * 2 = 4/3
        phi, p = kalman_update(np.zeros(1), np.array([[2.0]]), np.ones(1), 2.0, 1.0)
        assert phi[0] == pytest.approx(4.0 / 3.0, abs=1e-12)
        assert p[0, 0] == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_zero_regressor_is_noop(self):
        phi0 = np.array([1.0, -2.0])
        p0 = np.array([[2.0, 0.3], [0.3, 1.0]])
        phi, p = kalman_update(phi0, p0, np.zeros(2), 5.0, 1.0)
        np.testing.assert_array_equal(phi, phi0)
        np.testing.assert_array_equal(p, p0)

    def test_uninformative_measurement_limit(self):
        phi0 = np.array([0.7])
        phi, p = kalman_update(phi0, np.array([[2.0]]), np.ones(1), 100.0, 1e12)
        assert abs(phi[0] - 0.7) < 1e-6
        assert abs(p[0, 0] - 2.0) < 1e-6

    def test_rejects_nonpositive_meas_var(self):
        with pytest.raises(NonPositiveMeasurementVariance):
            kalman_update(np.zeros(1), np.eye(1), np.ones(1), 1.0, 0.0)

    @pytest.mark.parametrize("meas_var", [np.inf, np.nan])
    def test_rejects_non_finite_meas_var(self, meas_var):
        with pytest.raises(NonPositiveMeasurementVariance, match="finite and > 0"):
            kalman_update(np.zeros(1), np.eye(1), np.ones(1), 1.0, meas_var)

    def test_never_increases_uncertainty(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            d = rng.integers(1, 4)
            a = rng.standard_normal((d, d))
            p_pred = a @ a.T + 0.1 * np.eye(d)
            x = rng.standard_normal(d)
            _, p = kalman_update(np.zeros(d), p_pred, x, rng.standard_normal(), 0.5)
            assert np.linalg.eigvalsh(p_pred - p).min() > -1e-12


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([1, 3]))
def test_information_form_matches_gain_form(seed, dim):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((dim, dim))
    p_pred = a @ a.T + 0.05 * np.eye(dim)
    phi_pred = rng.standard_normal(dim)
    x = rng.standard_normal(dim)
    y = rng.standard_normal()
    meas_var = rng.uniform(0.05, 4.0)
    phi_a, p_a = kalman_update(phi_pred, p_pred, x, y, meas_var)
    phi_b, p_b = gain_form_update(phi_pred, p_pred, x, y, meas_var)
    np.testing.assert_allclose(phi_a, phi_b, atol=1e-9)
    np.testing.assert_allclose(p_a, p_b, atol=1e-9)


def information_form_chain(y, x_panel, cfg, meas_var_path=None):
    """Oracle: step-by-step ``kalman_predict`` + information-form
    ``kalman_update``, with the prediction-error log-likelihood."""
    n, d = x_panel.shape
    phi_path, p_path, innovations = np.empty((n, d)), np.empty((n, d, d)), np.empty(n)
    loglik = 0.0
    phi, p = cfg.phi0, cfg.p0
    for t in range(n):
        phi_pred, p_pred = kalman_predict(phi, p, cfg)
        x = x_panel[t]
        sv = cfg.meas_var if meas_var_path is None else meas_var_path[t]
        s = float(x @ p_pred @ x) + sv
        e = y[t] - float(x @ phi_pred)
        loglik += -0.5 * (np.log(2 * np.pi) + np.log(s) + e * e / s)
        phi, p = kalman_update(phi_pred, p_pred, x, y[t], sv)
        phi_path[t], p_path[t] = phi, p
        innovations[t] = y[t] - float(x @ phi)
    return phi_path, p_path, innovations, loglik


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([1, 2, 3]),
       n=st.integers(1, 60), q=st.sampled_from([0.0, 1e-4, 1e-2, 0.3]),
       with_path=st.booleans())
def test_filter_regression_matches_information_form_chain(seed, dim, n, q, with_path):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((dim, dim))
    p0 = a @ a.T + 0.1 * np.eye(dim)
    cfg = KalmanConfig(dim, rng.standard_normal(dim), p0, q * np.eye(dim),
                       rng.uniform(0.1, 3.0))
    x = rng.standard_normal((n, dim))
    x[rng.random(n) < 0.2] = 0.0
    y = x @ rng.standard_normal(dim) + rng.standard_normal(n)
    path = rng.uniform(0.1, 3.0, n) if with_path else None
    run = filter_regression(y, x, cfg, meas_var_path=path)
    phi_path, p_path, innovations, loglik = information_form_chain(y, x, cfg, path)
    np.testing.assert_allclose(run.phi_path, phi_path, rtol=0, atol=1e-9)
    np.testing.assert_allclose(run.p_path, p_path, rtol=0, atol=1e-9)
    np.testing.assert_allclose(run.innovations, innovations, rtol=0, atol=1e-9)
    assert run.loglik_pe == pytest.approx(loglik, rel=1e-9)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([1, 2, 3]),
       batch=st.integers(1, 5))
def test_batched_pass_matches_separate_filters(seed, dim, batch):
    # One kernel pass over B regressions, each with its own data, state
    # noise and measurement-variance path, against B separate filters.
    rng = np.random.default_rng(seed)
    n = 60
    cfg = KalmanConfig.default(dim, meas_var=1.0, kappa=rng.uniform(0.5, 20.0))
    y = rng.standard_normal((n, batch))
    x = rng.standard_normal((n, batch, dim))
    x[rng.random((n, batch)) < 0.2] = 0.0
    q = rng.choice([0.0, 1e-4, 1e-2, 0.3], batch)
    meas_var = rng.uniform(0.1, 3.0, (n, batch))
    q_batch = np.multiply.outer(q, np.eye(dim))
    innovations, loglik, phi_path, p_path = _gain_filter(
        y, x, cfg.phi0, cfg.p0, q_batch, meas_var, keep_phi=True, keep_p=True)
    for b in range(batch):
        run = filter_regression(y[:, b], x[:, b], replace(cfg, q=q[b] * np.eye(dim)),
                                meas_var_path=meas_var[:, b])
        np.testing.assert_allclose(innovations[:, b], run.innovations, rtol=0, atol=1e-12)
        np.testing.assert_allclose(phi_path[:, b], run.phi_path, rtol=0, atol=1e-12)
        np.testing.assert_allclose(p_path[:, b], run.p_path, rtol=0, atol=1e-12)
        assert loglik[b] == pytest.approx(run.loglik_pe, rel=1e-12)
    # The kernel forms the posterior residuals as e * R / s after the
    # loop; they are the residuals of the kept posterior means.
    np.testing.assert_allclose(innovations, y - np.sum(x * phi_path, axis=2),
                               rtol=0, atol=1e-12)
    # Paths not asked for are not stored, and change nothing else.
    lean = _gain_filter(y, x, cfg.phi0, cfg.p0, q_batch, meas_var)
    np.testing.assert_array_equal(lean[0], innovations)
    np.testing.assert_array_equal(lean[1], loglik)
    assert lean[2] is None and lean[3] is None
    means = _gain_filter(y, x, cfg.phi0, cfg.p0, q_batch, meas_var, keep_phi=True)
    np.testing.assert_array_equal(means[0], innovations)
    np.testing.assert_array_equal(means[2], phi_path)
    assert means[3] is None


@pytest.mark.parametrize("kappa", [10.0, 1e6])
@pytest.mark.parametrize("q", [0.0, 1e-2])
def test_one_regressor_pads_exactly(kappa, q):
    # A one-regressor batch padded with zero regressors filters to the same
    # bits as at width 1, also where its own regressor is 0.0 or -0.0.
    rng = np.random.default_rng(11)
    n, batch = 200, 4
    y = rng.standard_normal((n, batch))
    x = rng.standard_normal((n, batch, 1))
    x[rng.random((n, batch)) < 0.1] = 0.0
    x[rng.random((n, batch)) < 0.1] = -0.0
    assert np.any(np.signbit(x) & (x == 0)) and np.any(~np.signbit(x) & (x == 0))
    meas_var = rng.uniform(0.1, 3.0, (n, batch))

    def run(width):
        padded = np.zeros((n, batch, width))
        padded[:, :, :1] = x
        eye = np.eye(width)
        return _gain_filter(y, padded, np.zeros(width), kappa * eye,
                            np.multiply.outer(np.full(batch, q), eye), meas_var,
                            keep_phi=True, keep_p=True)

    innovations, loglik, phi_path, p_path = run(1)
    for width in (2, 5):
        wide = run(width)
        np.testing.assert_array_equal(wide[0], innovations)
        np.testing.assert_array_equal(wide[1], loglik)
        np.testing.assert_array_equal(wide[2][..., :1], phi_path)
        np.testing.assert_array_equal(wide[3][..., :1, :1], p_path)
        # The padded coefficients and cross covariances stay exactly 0.
        assert not np.any(wide[2][..., 1:])
        assert not np.any(wide[3][..., 0, 1:]) and not np.any(wide[3][..., 1:, 0])


class TestFilterRegression:
    def test_two_step_scalar_chain(self):
        # Step t=0 reproduces the hand update (phi-=0, P-=2, x=1, y=2);
        # step t=1 predicts (4/3, 5/3) and conditions on x=1, y=0:
        # precision 3/5 + 1 = 8/5 -> P = 5/8, phi = 5/8 * (3/5 * 4/3) = 1/2.
        cfg = scalar_cfg(phi0=0.0, p0=1.0, q=1.0, meas_var=1.0)
        run = filter_regression([2.0, 0.0], [[1.0], [1.0]], cfg)
        np.testing.assert_allclose(run.phi_path[:, 0], [4.0 / 3.0, 0.5], atol=1e-12)
        np.testing.assert_allclose(run.p_path[:, 0, 0], [2.0 / 3.0, 5.0 / 8.0], atol=1e-12)
        np.testing.assert_allclose(run.innovations, [2.0 / 3.0, -0.5], atol=1e-12)
        expected_ll = (
            -0.5 * (np.log(2 * np.pi) + np.log(3.0) + 4.0 / 3.0)
            - 0.5 * (np.log(2 * np.pi) + np.log(8.0 / 3.0) + 2.0 / 3.0)
        )
        assert run.loglik_pe == pytest.approx(expected_ll, abs=1e-12)

    def test_frozen_state_reproduces_static_residuals(self):
        rng = np.random.default_rng(11)
        n, phi_true = 200, np.array([0.8, -0.3])
        x = rng.standard_normal((n, 2))
        y = x @ phi_true + rng.standard_normal(n)
        cfg = KalmanConfig(2, phi_true, 1e-12 * np.eye(2), np.zeros((2, 2)), 1.0)
        run = filter_regression(y, x, cfg)
        np.testing.assert_allclose(run.phi_path, np.tile(phi_true, (n, 1)), atol=1e-6)
        np.testing.assert_allclose(run.innovations, y - x @ phi_true, atol=1e-5)

    def test_recursive_least_squares_limit(self):
        # Q = 0 with a diffuse prior is recursive least squares: the final
        # posterior mean must agree with batch OLS.
        rng = np.random.default_rng(5)
        n = 500
        x = rng.standard_normal((n, 2))
        y = x @ np.array([1.5, -0.7]) + rng.standard_normal(n)
        cfg = KalmanConfig(2, np.zeros(2), 1e6 * np.eye(2), np.zeros((2, 2)), 1.0)
        run = filter_regression(y, x, cfg)
        ols = np.linalg.lstsq(x, y, rcond=None)[0]
        np.testing.assert_allclose(run.phi_path[-1], ols, atol=1e-4)

    def test_single_step_matches_conjugate_posterior(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            d = rng.integers(1, 4)
            a = rng.standard_normal((d, d))
            p0 = a @ a.T + 0.2 * np.eye(d)
            q = 0.3 * np.eye(d)
            phi0 = rng.standard_normal(d)
            x = rng.standard_normal(d)
            y = rng.standard_normal()
            sv = rng.uniform(0.1, 2.0)
            cfg = KalmanConfig(d, phi0, p0, q, sv)
            run = filter_regression([y], x.reshape(1, d), cfg)
            # Direct conjugate Gaussian posterior with prior N(phi0, p0 + q).
            prior_prec = np.linalg.inv(p0 + q)
            post_cov = np.linalg.inv(prior_prec + np.outer(x, x) / sv)
            post_mean = post_cov @ (prior_prec @ phi0 + x * y / sv)
            np.testing.assert_allclose(run.phi_path[0], post_mean, atol=1e-10)
            np.testing.assert_allclose(run.p_path[0], post_cov, atol=1e-10)

    def test_posterior_covariances_stay_symmetric(self):
        rng = np.random.default_rng(9)
        n = 300
        x = rng.standard_normal((n, 3))
        y = rng.standard_normal(n)
        cfg = KalmanConfig.default(3, meas_var=1.0, kappa=10.0, state_noise=1e-3)
        run = filter_regression(y, x, cfg)
        np.testing.assert_array_equal(run.p_path, np.transpose(run.p_path, (0, 2, 1)))

    def test_noise_free_diffuse_prior_with_collinear_regressors(self):
        # The optimal-gain update P_pred - u u' / s under its hardest use:
        # a diffuse prior, no state noise and nearly collinear regressors,
        # so the posterior covariance shrinks by orders of magnitude.
        rng = np.random.default_rng(3)
        n, d = 2000, 3
        x = rng.standard_normal((n, 1)) + 1e-3 * rng.standard_normal((n, d))
        y = x @ np.array([1.0, -0.5, 0.25]) + rng.standard_normal(n)
        cfg = KalmanConfig(d, np.zeros(d), 1e6 * np.eye(d), np.zeros((d, d)), 1.0)
        run = filter_regression(y, x, cfg)
        np.testing.assert_array_equal(run.p_path, np.transpose(run.p_path, (0, 2, 1)))
        trace = np.trace(run.p_path, axis1=1, axis2=2)
        assert np.all(np.linalg.eigvalsh(run.p_path)[:, 0] >= -1e-12 * trace)
        phi_path = information_form_chain(y, x, cfg)[0]
        np.testing.assert_allclose(run.phi_path[-1], phi_path[-1], rtol=0, atol=1e-5)

    def test_update_never_increases_trace(self):
        rng = np.random.default_rng(13)
        n = 200
        x = rng.standard_normal((n, 2))
        y = rng.standard_normal(n)
        cfg = KalmanConfig.default(2, meas_var=0.5, state_noise=1e-2)
        run = filter_regression(y, x, cfg)
        tr_post = np.trace(run.p_path, axis1=1, axis2=2)
        tr_pred = np.empty(n)
        tr_pred[0] = np.trace(cfg.p0 + cfg.q)
        tr_pred[1:] = tr_post[:-1] + np.trace(cfg.q)
        assert np.all(tr_post <= tr_pred + 1e-12)

    def test_singular_prediction_reports_time_index(self):
        # a zero prior with zero state noise cannot be inverted, even
        # after jitter; the failure carries the offending step
        cfg = KalmanConfig(1, [0.0], [[0.0]], [[0.0]], 1.0)
        with pytest.raises(SingularPrediction, match="t=0"):
            filter_regression([1.0], [[1.0]], cfg)

    def test_rejects_non_finite_data(self):
        cfg = scalar_cfg()
        with pytest.raises(ValueError):
            filter_regression([1.0, 2.0], [[1.0], [np.nan]], cfg)
        with pytest.raises(ValueError):
            tune_state_noise([1.0, np.inf], [[1.0], [1.0]], cfg, [0.1])

    def test_per_step_measurement_variance_path(self):
        rng = np.random.default_rng(17)
        n = 50
        x = rng.standard_normal((n, 1))
        y = rng.standard_normal(n)
        cfg = scalar_cfg(meas_var=1.0)
        path = np.full(n, 1.0)
        run_a = filter_regression(y, x, cfg)
        run_b = filter_regression(y, x, cfg, meas_var_path=path)
        np.testing.assert_array_equal(run_a.phi_path, run_b.phi_path)
        with pytest.raises(NonPositiveMeasurementVariance):
            filter_regression(y, x, cfg, meas_var_path=np.zeros(n))

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.inf, np.nan])
    def test_rejects_meas_var_not_finite_and_positive(self, bad):
        with pytest.raises(NonPositiveMeasurementVariance, match="finite and > 0"):
            KalmanConfig.default(1, meas_var=bad)
        path = np.ones(5)
        path[3] = bad
        with pytest.raises(NonPositiveMeasurementVariance, match="finite and > 0.*t=3"):
            filter_regression(np.ones(5), np.ones((5, 1)), scalar_cfg(), meas_var_path=path)


class TestTuneStateNoise:
    def test_single_candidate(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((50, 1))
        y = rng.standard_normal(50)
        assert tune_state_noise(y, x, scalar_cfg(), [0.05]) == 0.05

    def test_static_data_prefers_smallest(self):
        grid = [1e-4, 1e-2, 1.0]
        hits = 0
        reps = 100
        for rep in range(reps):
            rng = np.random.default_rng(1000 + rep)
            n = 300
            x = rng.standard_normal((n, 1))
            y = 0.6 * x[:, 0] + rng.standard_normal(n)
            cfg = KalmanConfig.default(1, meas_var=1.0)
            if tune_state_noise(y, x, cfg, grid) == grid[0]:
                hits += 1
        assert hits >= 0.8 * reps

    def test_random_walk_data_recovers_noise_scale(self):
        grid = [1e-4, 1e-2, 1.0]
        hits = 0
        reps = 100
        for rep in range(reps):
            rng = np.random.default_rng(2000 + rep)
            n = 300
            phi = np.cumsum(rng.normal(0.0, np.sqrt(1e-2), n))
            x = rng.standard_normal((n, 1))
            y = phi * x[:, 0] + rng.standard_normal(n)
            cfg = KalmanConfig.default(1, meas_var=1.0)
            if tune_state_noise(y, x, cfg, grid) == 1e-2:
                hits += 1
        assert hits >= 0.8 * reps

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([1, 2, 3]))
    def test_batched_grid_matches_per_candidate_filters(self, seed, dim):
        grid = [1e-1, 1e-3, 1e-5, 1e-3, 0.0]
        rng = np.random.default_rng(seed)
        n = 80
        x = rng.standard_normal((n, dim))
        phi = np.cumsum(rng.normal(0.0, rng.choice([1e-3, 0.1]), (n, dim)), axis=0)
        y = np.sum(phi * x, axis=1) + rng.standard_normal(n)
        cfg = KalmanConfig.default(dim, meas_var=rng.uniform(0.5, 2.0))
        best_q, best_ll = None, -np.inf
        for q in sorted(grid):
            ll = filter_regression(y, x, replace(cfg, q=q * np.eye(dim))).loglik_pe
            if ll > best_ll:
                best_q, best_ll = q, ll
        assert tune_state_noise(y, x, cfg, grid) == best_q

    def test_exact_tie_goes_to_smallest(self):
        # Zero regressors carry no information, so every candidate has the
        # same likelihood bit for bit.
        rng = np.random.default_rng(4)
        y = rng.standard_normal(40)
        cfg = KalmanConfig.default(2, meas_var=1.0)
        assert tune_state_noise(y, np.zeros((40, 2)), cfg, [1e-2, 1.0, 1e-4, 1e-2]) == 1e-4

    def test_rejects_empty_or_negative_grid(self):
        with pytest.raises(ValueError):
            tune_state_noise([1.0], [[1.0]], scalar_cfg(), [])
        with pytest.raises(ValueError):
            tune_state_noise([1.0], [[1.0]], scalar_cfg(), [-0.1])
