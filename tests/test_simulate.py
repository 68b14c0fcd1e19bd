import numpy as np
import pytest

from scgarch.evaluation import loss_paths, moving_block_proxy
from scgarch.kalman import KalmanConfig, filter_regression
from scgarch.mcd import is_positive_definite
from scgarch.simulate import (
    Sim1Config,
    Sim2Config,
    generate_sim1,
    generate_sim2,
    sim2_sigma,
)


class TestSim2:
    def test_sigma_at_time_zero_is_diagonal(self):
        np.testing.assert_array_equal(sim2_sigma(0.0, Sim2Config()),
                                      np.diag([2.0, 3.0, 4.0]))

    def test_sigma_of_a_time_array_is_the_truth_path(self):
        cfg = Sim2Config(n=200, seed=1)
        data = generate_sim2(cfg)
        assert data.repairs == 0
        sigmas = sim2_sigma(np.arange(1, 201), cfg)
        np.testing.assert_array_equal(sigmas, data.truth.sigmas)
        np.testing.assert_allclose(sigmas[136], sim2_sigma(137.0, cfg), rtol=0, atol=1e-15)

    def test_first_covariance_peak(self):
        # t = 201 is the sample closest to the quarter period of the
        # (2,1) sine: sin(201/128) is within 1e-6 of 1.
        assert abs(sim2_sigma(201, Sim2Config())[1, 0] - 1.0) < 1e-6

    def test_fastest_pair_period(self):
        cfg = Sim2Config()
        period = 2.0 * np.pi * cfg.deltas[2]
        for t in (10.0, 137.0, 500.0):
            assert sim2_sigma(t + period, cfg)[2, 1] == pytest.approx(
                sim2_sigma(t, cfg)[2, 1], abs=1e-12
            )

    def test_generated_panel_shape_and_truth(self):
        data = generate_sim2(Sim2Config(seed=1))
        assert data.panel.values.shape == (1024, 3)
        assert data.truth.sigmas.shape == (1024, 3, 3)
        np.testing.assert_allclose(
            data.truth.correlations()[:, 1, 0],
            np.sin(np.arange(1, 1025) / 128.0) / np.sqrt(6.0),
        )

    def test_truth_path_is_pd_without_repairs(self):
        data = generate_sim2(Sim2Config(seed=2))
        assert data.repairs == 0
        np.linalg.cholesky(data.truth.sigmas)

    def test_deterministic(self):
        a = generate_sim2(Sim2Config(seed=9))
        b = generate_sim2(Sim2Config(seed=9))
        np.testing.assert_array_equal(a.panel.values, b.panel.values)
        np.testing.assert_array_equal(a.truth.sigmas, b.truth.sigmas)

    @pytest.mark.parametrize("diag", [(1e5, 1e5, 1e-6), (1e4, 1e4, 1e-6)])
    def test_repair_clears_the_pd_floor_at_any_scale(self, diag):
        data = generate_sim2(Sim2Config(n=256, diag=diag))
        assert data.repairs > 0
        assert all(is_positive_definite(sigma) for sigma in data.truth.sigmas)

    def test_proxy_tracks_truth_correlations(self):
        data = generate_sim2(Sim2Config(seed=0))
        rep = loss_paths(moving_block_proxy(data.panel, 65), data.truth,
                         "correlation")
        assert rep.mae < 0.25

    def test_config_validation(self):
        with pytest.raises(ValueError):
            Sim2Config(diag=(2.0, -3.0, 4.0))
        with pytest.raises(ValueError):
            Sim2Config(deltas=(128.0, 0.0, 64.0))

    @pytest.mark.parametrize("name, value", [
        ("deltas", (np.nan, 1.0, 1.0)), ("deltas", (128.0, np.inf, 64.0)),
        ("diag", (2.0, np.nan, 4.0)), ("diag", (2.0, 3.0, np.inf)),
    ], ids=["deltas-nan", "deltas-inf", "diag-nan", "diag-inf"])
    def test_config_rejects_non_finite_settings(self, name, value):
        with pytest.raises(ValueError, match="finite"):
            Sim2Config(**{name: value})


class TestSim1:
    def test_zero_walk_noise_freezes_coefficient(self):
        data = generate_sim1(Sim1Config(n=100, q_true=0.0, seed=4))
        assert np.ptp(data.phi_true) == 0.0

    def test_noiseless_identification(self):
        # with (nearly) no measurement noise and a frozen coefficient the
        # filter locks onto the true value almost immediately
        cfg = Sim1Config(n=500, q_true=0.0, meas_var=1e-8, seed=6)
        data = generate_sim1(cfg)
        kcfg = KalmanConfig.default(1, meas_var=cfg.meas_var, state_noise=0.0)
        run = filter_regression(data.y, data.x.reshape(-1, 1), kcfg)
        assert abs(run.phi_path[-1, 0] - data.phi_true[0]) < 0.01

    def test_observation_equation(self):
        data = generate_sim1(Sim1Config(n=50, q_true=0.0, meas_var=1e-12, seed=3))
        np.testing.assert_allclose(data.y, data.x * data.phi_true, atol=1e-4)

    def test_deterministic(self):
        a = generate_sim1(Sim1Config(n=64, seed=12))
        b = generate_sim1(Sim1Config(n=64, seed=12))
        np.testing.assert_array_equal(a.y, b.y)
        np.testing.assert_array_equal(a.phi_true, b.phi_true)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            Sim1Config(n=10, q_true=-1.0)
        with pytest.raises(ValueError):
            Sim1Config(n=10, meas_var=0.0)

    @pytest.mark.parametrize("name, value", [
        ("q_true", np.nan), ("q_true", np.inf), ("meas_var", np.nan), ("meas_var", np.inf),
    ], ids=["q_true-nan", "q_true-inf", "meas_var-nan", "meas_var-inf"])
    def test_config_rejects_non_finite_settings(self, name, value):
        with pytest.raises(ValueError, match="finite"):
            Sim1Config(n=10, **{name: value})
