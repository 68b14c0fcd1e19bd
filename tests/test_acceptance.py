"""Acceptance suite: one test per release criterion.

Each test enforces its stated tolerance and runtime budget and prints a
single summary line (visible with ``pytest -rA`` or ``-s``).
"""

import time

import numpy as np
import pytest

from scgarch import io
from scgarch.cli import main as cli_main
from scgarch.evaluation import loss_paths, moving_block_proxy, select_block_size
from scgarch.garch import (
    GarchParams,
    _nll_and_derivatives,
    garch_fit,
    garch_loglik,
    simulate_garch,
)
from scgarch.kalman import KalmanConfig, filter_regression, kalman_update
from scgarch.mcd import mcd_decompose, mcd_reconstruct
from scgarch.model import (
    DEFAULT_TUNE_GRID,
    CovariancePath,
    ScgarchConfig,
    TimeSeriesPanel,
    fit_scgarch,
)
from scgarch.experiments import Sim1BiasConfig, run_sim1_bias
from scgarch.simulate import Sim2Config, generate_sim2


def test_criterion_1_mcd_roundtrip():
    start = time.perf_counter()
    rng = np.random.default_rng(1)
    worst_roundtrip = 0.0
    worst_offdiag = 0.0
    for k in range(1000):
        dim = 1 + k % 10
        a = rng.standard_normal((dim, dim))
        sigma = a @ a.T + 1e-3 * np.eye(dim)
        t, d = mcd_decompose(sigma)
        worst_roundtrip = max(worst_roundtrip,
                              np.max(np.abs(mcd_reconstruct(t, d) - sigma)))
        prod = t @ sigma @ t.T
        off = prod - np.diag(np.diag(prod))
        worst_offdiag = max(worst_offdiag, np.max(np.abs(off)))
    elapsed = time.perf_counter() - start
    assert worst_roundtrip < 1e-9
    assert worst_offdiag < 1e-9
    assert elapsed < 5.0
    print(f"ACCEPTANCE 1 PASS mcd round-trip: max errors "
          f"{worst_roundtrip:.2e}/{worst_offdiag:.2e} in {elapsed:.2f}s")


def test_criterion_2_kalman_oracles():
    start = time.perf_counter()
    rng = np.random.default_rng(2)
    worst = 0.0
    for k in range(1000):
        for dim in (1, 3):
            a = rng.standard_normal((dim, dim))
            p_pred = a @ a.T + 0.05 * np.eye(dim)
            phi_pred = rng.standard_normal(dim)
            x = rng.standard_normal(dim)
            y = rng.standard_normal()
            sv = rng.uniform(0.05, 4.0)
            phi_a, p_a = kalman_update(phi_pred, p_pred, x, y, sv)
            # gain-form oracle
            s = float(x @ p_pred @ x) + sv
            gain = (p_pred @ x) / s
            phi_b = phi_pred + gain * (y - float(x @ phi_pred))
            p_b = (np.eye(dim) - np.outer(gain, x)) @ p_pred
            worst = max(worst, np.max(np.abs(phi_a - phi_b)),
                        np.max(np.abs(p_a - 0.5 * (p_b + p_b.T))))
    assert worst < 1e-9

    worst_post = 0.0
    for k in range(200):
        dim = 1 + k % 3
        a = rng.standard_normal((dim, dim))
        p0 = a @ a.T + 0.2 * np.eye(dim)
        q = 0.1 * np.eye(dim)
        phi0 = rng.standard_normal(dim)
        x = rng.standard_normal(dim)
        y = rng.standard_normal()
        sv = rng.uniform(0.1, 2.0)
        run = filter_regression([y], x.reshape(1, dim),
                                KalmanConfig(dim, phi0, p0, q, sv))
        prior_prec = np.linalg.inv(p0 + q)
        post_cov = np.linalg.inv(prior_prec + np.outer(x, x) / sv)
        post_mean = post_cov @ (prior_prec @ phi0 + x * y / sv)
        worst_post = max(worst_post, np.max(np.abs(run.phi_path[0] - post_mean)),
                         np.max(np.abs(run.p_path[0] - post_cov)))
    elapsed = time.perf_counter() - start
    assert worst_post < 1e-10
    assert elapsed < 5.0
    print(f"ACCEPTANCE 2 PASS kalman oracles: gain-form dev {worst:.2e}, "
          f"conjugate dev {worst_post:.2e} in {elapsed:.2f}s")


def test_criterion_3_recursive_least_squares_limit():
    start = time.perf_counter()
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(100 + seed)
        n, dim = 500, 2
        x = rng.standard_normal((n, dim))
        y = x @ np.array([1.2, -0.4]) + rng.standard_normal(n)
        cfg = KalmanConfig(dim, np.zeros(dim), 1e6 * np.eye(dim),
                           np.zeros((dim, dim)), 1.0)
        run = filter_regression(y, x, cfg)
        ols = np.linalg.lstsq(x, y, rcond=None)[0]
        worst = max(worst, np.max(np.abs(run.phi_path[-1] - ols)))
    elapsed = time.perf_counter() - start
    assert worst < 1e-4
    assert elapsed < 10.0
    print(f"ACCEPTANCE 3 PASS recursive-least-squares limit: max dev "
          f"{worst:.2e} over 20 seeds in {elapsed:.2f}s")


def test_criterion_4_garch_recovery_and_gradient():
    start = time.perf_counter()
    true = GarchParams(0.1, 0.1, 0.8)
    errs = []
    for seed in range(100):
        eps, _ = simulate_garch(true, 2000, seed=seed)
        fit = garch_fit(eps)
        errs.append([abs(fit.params.omega - 0.1),
                     abs(fit.params.alpha[0] - 0.1),
                     abs(fit.params.beta[0] - 0.8)])
    med = np.median(np.asarray(errs), axis=0)
    assert np.all(med < 0.1)

    rng = np.random.default_rng(4)
    eps, _ = simulate_garch(true, 500, seed=1)
    init = float(np.var(eps))
    e2 = eps * eps
    e2_lag = np.r_[init, e2[:-1]]
    worst_rel = 0.0
    for _ in range(20):
        omega = rng.uniform(0.02, 1.0)
        s = rng.uniform(0.2, 0.98)
        u = rng.uniform(0.05, 0.95)
        theta = np.array([omega, s * u, s * (1 - u)])
        _, grad, _, _ = _nll_and_derivatives(theta, e2, e2_lag, init)
        for k in range(3):
            step = np.zeros(3)
            step[k] = 1e-6 * theta[k]
            fp = _nll_and_derivatives(theta + step, e2, e2_lag, init)[0]
            fm = _nll_and_derivatives(theta - step, e2, e2_lag, init)[0]
            fd = (fp - fm) / (2 * step[k])
            worst_rel = max(worst_rel, abs(grad[k] - fd) / max(abs(fd), 1e-8))
    elapsed = time.perf_counter() - start
    assert worst_rel < 1e-4
    assert elapsed < 120.0
    print(f"ACCEPTANCE 4 PASS garch recovery: median |err| "
          f"{np.round(med, 4).tolist()}, gradient rel dev {worst_rel:.2e} "
          f"in {elapsed:.1f}s")


def test_criterion_5_sim1_bias_shrinks_with_sample_size():
    # 200 replications (permitted desk scale; the 1000-replication run
    # passes with the same frozen base seed, see scripts/sim1_consistency.py)
    start = time.perf_counter()
    biases = run_sim1_bias(Sim1BiasConfig(replications=200))
    elapsed = time.perf_counter() - start
    mags = [abs(biases[n]) for n in (100, 500, 1000)]
    assert mags[0] > mags[1] > mags[2]
    assert mags[2] < 0.01
    assert elapsed < 600.0
    print(f"ACCEPTANCE 5 PASS sim1 consistency: |bias| "
          f"{[round(m, 5) for m in mags]} decreasing, final < 0.01, "
          f"in {elapsed:.1f}s")


def test_criterion_6_sim2_tracking():
    start = time.perf_counter()
    config = ScgarchConfig(state_noise=DEFAULT_TUNE_GRID)
    pairs = [(1, 0), (2, 0), (2, 1)]
    cors = []
    for rep in range(20):
        data = generate_sim2(Sim2Config(seed=rep))
        fit = fit_scgarch(data.panel, config)
        np.linalg.cholesky(fit.cov_path.sigmas)  # PD at every step
        est = fit.cov_path.correlations()
        tru = data.truth.correlations()
        cors.append([np.corrcoef(est[:, i, j], tru[:, i, j])[0, 1]
                     for i, j in pairs])
    med = np.median(np.asarray(cors), axis=0)
    elapsed = time.perf_counter() - start
    assert np.all(med > 0.5)
    assert elapsed < 600.0
    print(f"ACCEPTANCE 6 PASS sim2 tracking: median Pearson "
          f"{np.round(med, 3).tolist()} over 20 replications in {elapsed:.1f}s")


def test_criterion_7_likelihood_decomposition_identity():
    data = generate_sim2(Sim2Config(n=256, seed=11))
    fit = fit_scgarch(data.panel)
    start = time.perf_counter()
    y = data.panel.values
    sig = fit.cov_path.sigmas
    direct = float(sum(
        np.log(np.linalg.det(sig[t])) + y[t] @ np.linalg.solve(sig[t], y[t])
        for t in range(data.panel.n)
    ))
    per_series = -fit.total_loglik
    elapsed = time.perf_counter() - start
    rel = abs(direct - per_series) / abs(per_series)
    assert rel < 1e-6
    assert elapsed < 1.0
    print(f"ACCEPTANCE 7 PASS likelihood decomposition: relative gap "
          f"{rel:.2e} in {elapsed:.3f}s")


def test_criterion_8_evaluation_formulas():
    # hand-computed p=2 losses
    truth = CovariancePath(np.array([[[1.0, 0.5], [0.5, 2.0]]]))
    est = CovariancePath(np.array([[[1.1, 0.3], [0.3, 2.3]]]))
    rep = loss_paths(est, truth)
    assert rep.mae == pytest.approx(0.2, abs=1e-15)
    assert rep.mse == pytest.approx(0.045, abs=1e-15)

    # full-window proxy equals batch moments
    rng = np.random.default_rng(8)
    y = rng.standard_normal((101, 3))
    proxy = moving_block_proxy(TimeSeriesPanel(y), 101)
    batch = y.T @ y / 101
    assert np.max(np.abs(proxy.sigmas - batch)) < 1e-12

    # block-selection diagnostics: consecutive differences shrink in the
    # large-q tail on i.i.d. data (median over 20 seeds)
    candidates = [5, 9, 15, 25, 41, 61, 85]
    diffs_mae, diffs_mse = [], []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        sel = select_block_size(TimeSeriesPanel(rng.standard_normal((2000, 2))),
                                candidates)
        diffs_mae.append([r.mae_diff for r in sel.table[1:]])
        diffs_mse.append([r.mse_diff for r in sel.table[1:]])
    for diffs in (diffs_mae, diffs_mse):
        med = np.median(np.asarray(diffs), axis=0)
        assert np.all(np.diff(med[-3:]) <= 0)
    print("ACCEPTANCE 8 PASS evaluation formulas: hand losses exact, "
          "q=n proxy equals batch moments, selection tail monotone")


def test_criterion_9_cli_runs_full_protocol(tmp_path):
    # the full evaluation protocol end to end on a generated panel,
    # producing the standard report schema
    sim = tmp_path / "sim"
    assert cli_main(["simulate", "sim2", "--n", "512", "--seed", "1",
                     "--out-dir", str(sim)]) == 0
    panel = sim / "panel.csv"

    sel = tmp_path / "sel"
    assert cli_main(["select-block", str(panel), "--candidates",
                     "5", "11", "21", "35", "65", "--out-dir", str(sel)]) == 0
    rows = (sel / "block_selection.csv").read_text().strip().splitlines()[1:]
    q_star = next(int(r.split(",")[0]) for r in rows if r.endswith("true"))

    fit = tmp_path / "fit"
    assert cli_main(["fit", str(panel), "--out-dir", str(fit)]) == 0

    ev_proxy = tmp_path / "ev_proxy"
    assert cli_main(["evaluate", str(fit / "cov_path.csv"), "--moving-block",
                     "--panel", str(panel), "--block-size", str(q_star),
                     "--out-dir", str(ev_proxy)]) == 0
    ev_truth = tmp_path / "ev_truth"
    assert cli_main(["evaluate", str(fit / "cov_path.csv"),
                     "--truth", str(sim / "truth_cov.csv"),
                     "--scale", "correlation", "--out-dir", str(ev_truth)]) == 0

    for out in (ev_proxy, ev_truth):
        lines = (out / "eval.csv").read_text().strip().splitlines()
        assert lines[0].startswith("#")          # truth source recorded
        assert lines[1] == "t,mae,mse"
        assert lines[-1].startswith("mean,")
        mae, mse = (float(v) for v in lines[-1].split(",")[1:])
        assert np.isfinite(mae) and np.isfinite(mse) and mae > 0 and mse > 0
        assert (out / "config.echo").exists()
    print(f"ACCEPTANCE 9 PASS cli protocol: simulate, select-block "
          f"(q*={q_star}), fit, evaluate (proxy + truth) all exit 0 with "
          "the standard report schema")
