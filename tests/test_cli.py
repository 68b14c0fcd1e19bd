import concurrent.futures
import importlib.util
import os
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from scgarch import cli, experiments, io, mcd, model
from scgarch.cli import main
from scgarch.experiments import (
    SIM1_LAST_K,
    BenchmarkConfig,
    BenchmarkResult,
    BenchmarkRow,
    Sim1BiasConfig,
    run_benchmark,
    run_sim1_bias,
)
from scgarch.garch import GarchParams, garch_fit, simulate_garch
from scgarch.kalman import KalmanConfig, filter_regression
from scgarch.mcd import is_positive_definite
from scgarch.model import (
    DEFAULT_TUNE_GRID,
    CovariancePath,
    ScgarchConfig,
    TimeSeriesPanel,
    fit_model,
)
from scgarch.simulate import Sim1Config, Sim2Config, generate_sim1


SIM1_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "sim1_consistency.py"


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def script():
    spec = importlib.util.spec_from_file_location("sim1_consistency", SIM1_SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_iid_panel(path, n, p, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    io.write_panel(path, TimeSeriesPanel(scale * rng.standard_normal((n, p))))


@pytest.mark.parametrize("argv", [
    ["fit", "panel.csv", "--kalman-kappa", 0, "--kalman-q", 0],
    ["fit", "missing.csv"],
    ["simulate", "sim1", "--n", 0],
    ["evaluate", "panel.csv"],  # neither --truth nor --moving-block
    ["benchmark", "--replications", 0],
    ["fit", "short.csv"],  # fewer rows than a fit needs
    ["evaluate", "cov200.csv", "--truth", "cov100.csv"],
    ["fit", "wide.csv", "--ordering", "bic-exhaustive"],  # p = 9 > EXHAUSTIVE_LIMIT
    ["benchmark", "--n", 10],
    ["select-block", "panel.csv", "--candidates", 5, 9, "--threshold", "nan"],
    ["select-block", "panel.csv"],  # no --candidates
    ["simulate", "sim1", "--q-true", "nan"],
    ["simulate", "sim1", "--meas-var", "inf"],
    ["simulate", "sim2", "--deltas", "nan", 1, 1],
    # --truth reads neither --panel nor --block-size
    ["evaluate", "cov100.csv", "--truth", "cov100.csv", "--block-size", 4,
     "--panel", "missing.csv"],
    # --moving-block needs both --panel and --block-size
    ["evaluate", "cov100.csv", "--moving-block", "--block-size", 5],
    ["evaluate", "cov100.csv", "--moving-block", "--panel", "panel.csv"],
])
def test_rejected_run_creates_no_directory(tmp_path, argv):
    write_iid_panel(tmp_path / "panel.csv", 120, 3, seed=2)
    write_iid_panel(tmp_path / "wide.csv", 120, 9, seed=2)
    write_iid_panel(tmp_path / "short.csv", 30, 3, seed=2)
    for n in (100, 200):
        io.write_cov_path(tmp_path / f"cov{n}.csv",
                          CovariancePath(np.broadcast_to(np.eye(2), (n, 2, 2))))
    argv = [tmp_path / a if str(a).endswith(".csv") else a for a in argv]
    out = tmp_path / "out"
    assert run(*argv, "--out-dir", out) == 2
    assert not out.exists()


class TestSimulate:
    def test_sim2_default_shape(self, tmp_path):
        assert run("simulate", "sim2", "--out-dir", tmp_path) == 0
        panel = io.read_panel(tmp_path / "panel.csv")
        assert panel.values.shape == (1024, 3)
        truth = io.read_cov_path(tmp_path / "truth_cov.csv")
        assert truth.sigmas.shape == (1024, 3, 3)
        assert (tmp_path / "config.echo").exists()

    def test_sim1_row_count(self, tmp_path):
        assert run("simulate", "sim1", "--n", 100, "--out-dir", tmp_path) == 0
        lines = (tmp_path / "panel.csv").read_text().strip().splitlines()
        assert lines[0] == "y,x,phi_true"
        assert len(lines) == 101

    @pytest.mark.parametrize("kind, read, unread", [
        ("sim1", ("q_true", "meas_var"), ("deltas", "diag")),
        ("sim2", ("deltas", "diag"), ("q_true", "meas_var")),
    ])
    def test_echo_names_only_the_kind_s_options(self, tmp_path, kind, read, unread):
        assert run("simulate", kind, "--n", 64, "--out-dir", tmp_path) == 0
        keys = [line.split("=")[0] for line in (tmp_path / "config.echo").read_text().splitlines()]
        assert set(read) <= set(keys) and not set(unread) & set(keys)

    def test_negative_seed_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run("simulate", "sim2", "--seed", -1, "--out-dir", tmp_path)
        assert exc.value.code == 2

    def test_sim2_repairs_a_large_diagonal(self, tmp_path):
        assert run("simulate", "sim2", "--n", 256, "--diag", 100000, 100000, 0.000001,
                   "--out-dir", tmp_path) == 0
        truth = io.read_cov_path(tmp_path / "truth_cov.csv")
        assert all(is_positive_definite(sigma) for sigma in truth.sigmas)

    def test_identical_seed_gives_identical_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run("simulate", "sim2", "--n", 64, "--seed", 7, "--out-dir", a)
        run("simulate", "sim2", "--n", 64, "--seed", 7, "--out-dir", b)
        assert (a / "panel.csv").read_bytes() == (b / "panel.csv").read_bytes()
        assert (a / "truth_cov.csv").read_bytes() == (b / "truth_cov.csv").read_bytes()


class TestFit:
    def test_p1_correlation_path_is_ones(self, tmp_path):
        panel_path = tmp_path / "panel.csv"
        write_iid_panel(panel_path, 120, 1, seed=3)
        out = tmp_path / "out"
        assert run("fit", panel_path, "--out-dir", out) == 0
        corr = io.read_cov_path(out / "corr_path.csv")
        np.testing.assert_array_equal(corr.sigmas, np.ones((120, 1, 1)))
        for name in ("cov_path.csv", "coeff_path.csv", "garch_params.csv",
                     "ordering.txt", "summary.txt", "config.echo"):
            assert (out / name).exists()

    def test_cgarch_coefficients_constant(self, tmp_path):
        panel_path = tmp_path / "panel.csv"
        write_iid_panel(panel_path, 150, 2, seed=5)
        out = tmp_path / "out"
        assert run("fit", panel_path, "--model", "cgarch", "--out-dir", out) == 0
        rows = (out / "coeff_path.csv").read_text().strip().splitlines()[1:]
        phis = {row.split(",")[3] for row in rows}
        assert len(phis) == 1  # one (j,k) pair, identical at every t
        summary = (out / "summary.txt").read_text()
        assert "model=cgarch" in summary and "bic=" in summary

    def test_bic_ordering_writes_permutation(self, tmp_path):
        panel_path = tmp_path / "panel.csv"
        write_iid_panel(panel_path, 150, 2, seed=8)
        out = tmp_path / "out"
        assert run("fit", panel_path, "--ordering", "bic-exhaustive",
                   "--out-dir", out) == 0
        first = (out / "ordering.txt").read_text().splitlines()[0]
        assert sorted(first.split()) == ["1", "2"]

    def test_several_noise_values_are_the_state_noise_candidates(self, tmp_path):
        panel_path = tmp_path / "panel.csv"
        write_iid_panel(panel_path, 120, 2, seed=1)
        out = tmp_path / "out"
        assert run("fit", panel_path, "--kalman-q", 1e-5, 1e-3, "--out-dir", out) == 0
        result = fit_model(io.read_panel(panel_path), "scgarch",
                           ScgarchConfig(state_noise=(1e-5, 1e-3)))
        expected = tmp_path / "expected.csv"
        io.write_cov_path(expected, result.cov_path)
        assert (out / "cov_path.csv").read_bytes() == expected.read_bytes()

    def test_tuning_with_a_noise_value_is_exit_2(self, tmp_path, capsys):
        panel_path = tmp_path / "panel.csv"
        write_iid_panel(panel_path, 120, 2, seed=1)
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            run("fit", panel_path, "--tune-state-noise", "--kalman-q", 0.5,
                "--out-dir", out)
        assert exc.value.code == 2
        assert "not allowed with" in capsys.readouterr().err
        assert not out.exists()

    def test_beam_search_repeats_byte_for_byte(self, tmp_path):
        # p = 9 is above the exhaustive limit; the beam draws no random
        # numbers, so two runs write the same files.
        panel_path = tmp_path / "panel.csv"
        write_iid_panel(panel_path, 120, 9, seed=3)
        first, again = tmp_path / "first", tmp_path / "again"
        for out in (first, again):
            assert run("fit", panel_path, "--ordering", "bic-beam", "--out-dir", out) == 0
        names = sorted(path.name for path in first.iterdir())
        assert names == sorted(path.name for path in again.iterdir())
        for name in names:
            if name != "config.echo":
                assert (again / name).read_bytes() == (first / name).read_bytes(), name
        echoes = [(out / "config.echo").read_text().replace(str(out), "<out>")
                  for out in (first, again)]
        assert echoes[0] == echoes[1]

    def test_bic_fit_fits_each_column_set_once(self, tmp_path, monkeypatch):
        # p = 4: the search fits p * 2**(p-1) = 32 (series, set) pairs, and
        # the fit of the ordering it picks is built from them.
        calls = []

        def counting_fit(eps):
            calls.append(1)
            return garch_fit(eps)

        monkeypatch.setattr(model, "garch_fit", counting_fit)
        panel_path = tmp_path / "panel.csv"
        write_iid_panel(panel_path, 120, 4, seed=6)
        assert run("fit", panel_path, "--ordering", "bic-exhaustive",
                   "--out-dir", tmp_path / "out") == 0
        assert len(calls) == 32

    @pytest.mark.parametrize("option, value", [
        ("--kalman-kappa", "-1"), ("--kalman-kappa", "nan"), ("--kalman-q", "-1"),
        ("--kalman-q", "nan"), ("--kalman-q", "inf"),
    ])
    def test_invalid_fit_setting_is_exit_2(self, tmp_path, option, value):
        panel_path = tmp_path / "panel.csv"
        write_iid_panel(panel_path, 120, 3, seed=2)
        out = tmp_path / "out"
        assert run("fit", panel_path, option, value, "--out-dir", out) == 2
        assert not (out / "cov_path.csv").exists()

    @pytest.mark.parametrize("command", ["fit", "benchmark"])
    def test_zero_prior_with_zero_noise_is_exit_2(self, tmp_path, capsys, command):
        # The first predicted state covariance would be zero: a settings
        # error, not a numerical failure of a series.
        panel_path = tmp_path / "panel.csv"
        write_iid_panel(panel_path, 120, 3, seed=2)
        args = [panel_path] if command == "fit" else ["--replications", 1, "--n", 128]
        out = tmp_path / "out"
        assert run(command, *args, "--kalman-kappa", 0, "--kalman-q", 0,
                   "--out-dir", out) == 2
        assert "kappa = 0" in capsys.readouterr().err
        assert not (out / "cov_path.csv").exists()
        assert not (out / "benchmark.csv").exists()

    def test_overflowing_series_is_exit_3(self, tmp_path, capsys):
        eps, _ = simulate_garch(GarchParams(0.1, 0.1, 0.8), 120, seed=5)
        other = np.random.default_rng(5).standard_normal(120)
        io.write_panel(tmp_path / "panel.csv",
                       TimeSeriesPanel(np.column_stack([eps * 1e155, other])))
        with np.errstate(all="ignore"):
            assert run("fit", tmp_path / "panel.csv", "--out-dir", tmp_path) == 3
        assert "stage 'garch' failed for series 1" in capsys.readouterr().err

    @pytest.mark.parametrize("scale, options", [
        (1e155, []), (1.0, ["--kalman-kappa", 1e308, "--kalman-q", 1e308])])
    def test_overflowing_regression_is_exit_3_without_warnings(
            self, tmp_path, capsys, scale, options):
        eps, _ = simulate_garch(GarchParams(0.1, 0.1, 0.8), 120, seed=5)
        other = np.random.default_rng(5).standard_normal(120)
        io.write_panel(tmp_path / "panel.csv",
                       TimeSeriesPanel(np.column_stack([other, eps * scale])))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run("fit", tmp_path / "panel.csv", *options,
                       "--out-dir", tmp_path) == 3
        assert caught == []
        err = capsys.readouterr().err
        assert "stage 'kalman' failed for series 2" in err
        assert "RuntimeWarning" not in err

    def test_missing_input_is_exit_2(self, tmp_path):
        assert run("fit", tmp_path / "nope.csv", "--out-dir", tmp_path) == 2

    def test_malformed_panel_is_exit_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1.0,x\n")
        assert run("fit", bad, "--out-dir", tmp_path) == 2

    def test_numerical_failure_is_exit_3(self, tmp_path):
        # perfectly collinear columns: the static factorization must fail
        rng = np.random.default_rng(4)
        col = rng.standard_normal(100)
        io.write_panel(tmp_path / "panel.csv",
                       TimeSeriesPanel(np.column_stack([col, col]), ["a", "b"]))
        assert run("fit", tmp_path / "panel.csv", "--model", "cgarch",
                   "--out-dir", tmp_path) == 3

    @pytest.mark.parametrize("error", [np.linalg.LinAlgError, FloatingPointError])
    def test_numpy_numerical_error_is_exit_3(self, tmp_path, monkeypatch, error):
        def failing_fit(panel, model, config):
            raise error("Singular matrix")
        monkeypatch.setattr(cli, "fit_model", failing_fit)
        panel_path = tmp_path / "panel.csv"
        write_iid_panel(panel_path, 120, 2, seed=1)
        assert run("fit", panel_path, "--out-dir", tmp_path) == 3
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1.0,x\n")
        assert run("fit", bad, "--out-dir", tmp_path) == 2

    def test_even_block_size_is_exit_2(self, tmp_path):
        run("simulate", "sim2", "--n", 64, "--out-dir", tmp_path)
        fitdir = tmp_path / "fit"
        run("fit", tmp_path / "panel.csv", "--out-dir", fitdir)
        assert run("evaluate", fitdir / "cov_path.csv", "--moving-block",
                   "--panel", tmp_path / "panel.csv", "--block-size", 10,
                   "--out-dir", tmp_path) == 2


def write_garch_panel(path, n, p, seed):
    """GARCH(1,1) innovations mixed by a unit lower triangular matrix, in
    reverse column order, so that a BIC search leaves the panel's order."""
    eps = np.column_stack([simulate_garch(GarchParams(0.1, 0.2, 0.7), n, seed=seed + k)[0]
                           for k in range(p)])
    mix = np.tril(np.full((p, p), 0.6), -1) + np.eye(p)
    io.write_panel(path, TimeSeriesPanel((eps @ mix.T)[:, ::-1]))


class TestStreamedPaths:
    """``fit`` builds its covariance and correlation paths from the fit's
    factors a block of steps at a time as it writes them; the files are
    those written in one block from the whole paths."""

    @pytest.mark.parametrize("n", [2 * mcd._BLOCK_STEPS, mcd._BLOCK_STEPS + 44, 100],
                             ids=["blocks", "blocks-and-a-part", "part-of-a-block"])
    @pytest.mark.parametrize("options", [
        ["--model", "cgarch"], ["--tune-state-noise"], ["--ordering", "bic-exhaustive"]],
        ids=["cgarch", "tuned", "bic-exhaustive"])
    def test_same_bytes_as_one_block(self, tmp_path, monkeypatch, options, n):
        panel_path = tmp_path / "panel.csv"
        write_garch_panel(panel_path, n, 3, seed=n)
        out = tmp_path / "out"
        assert run("fit", panel_path, *options, "--out-dir", out) == 0
        panel = io.read_panel(panel_path)
        if options[0] == "--ordering":
            result = model.order_by_bic(panel)
            assert result.ordering != (0, 1, 2)  # the paths are permuted back
        elif options[0] == "--model":
            result = fit_model(panel, "cgarch")
        else:
            result = fit_model(panel, "scgarch", ScgarchConfig(state_noise=DEFAULT_TUNE_GRID))
        monkeypatch.setattr(io, "_BLOCK_STEPS", n)
        io.write_cov_path(tmp_path / "cov_path.csv", result.cov_path)
        io.write_cov_path(tmp_path / "corr_path.csv",
                          CovariancePath(result.cov_path.correlations()))
        io.write_coeff_path(tmp_path / "coeff_path.csv", result.t_path)
        for name in ("cov_path.csv", "corr_path.csv", "coeff_path.csv"):
            assert (out / name).read_bytes() == (tmp_path / name).read_bytes(), name

    def test_zero_garch_variance_is_exit_3_with_no_directory(self, tmp_path, monkeypatch,
                                                             capsys):
        # The fit is checked before the directory is made, so writing the
        # paths, built as they are written, cannot fail halfway.
        calls = []

        def zero_in_second_fit(eps):
            calls.append(1)
            fit = garch_fit(eps)
            if len(calls) == 2:
                s2 = fit.sigma2_path.copy()
                s2[10] = 0.0
                fit = replace(fit, sigma2_path=s2)
            return fit

        monkeypatch.setattr(model, "garch_fit", zero_in_second_fit)
        panel_path = tmp_path / "panel.csv"
        write_iid_panel(panel_path, 120, 3, seed=4)
        out = tmp_path / "out"
        assert run("fit", panel_path, "--out-dir", out) == 3
        assert "series 2 is not positive and finite" in capsys.readouterr().err
        assert not out.exists()


def test_fit_writes_hold_no_path(tmp_path, monkeypatch):
    """When the writes of a cgarch fit of a 4096 x 8 panel start, tracemalloc
    sees less than one n x p x p path (2 MiB) held, and no write allocates
    that much: no covariance or correlation path is built whole."""
    panel_path = tmp_path / "panel.csv"
    write_garch_panel(panel_path, 4096, 8, seed=1)
    path_bytes = 4096 * 8 * 8 * 8
    held, peaks = [], []

    def traced(write):
        def wrapper(path, obj):
            held.append(tracemalloc.get_traced_memory()[0])
            tracemalloc.reset_peak()
            write(path, obj)
            peaks.append(tracemalloc.get_traced_memory()[1] - held[-1])
        return wrapper

    for name in ("write_cov_path", "write_coeff_path"):
        monkeypatch.setattr(io, name, traced(getattr(io, name)))
    tracemalloc.start()
    try:
        assert run("fit", panel_path, "--model", "cgarch", "--out-dir", tmp_path / "out") == 0
    finally:
        tracemalloc.stop()
    assert len(peaks) == 3
    assert max(held) < path_bytes
    assert max(peaks) < path_bytes


class TestEvaluate:
    def test_perfect_estimate_scores_zero(self, tmp_path, capsys):
        run("simulate", "sim2", "--n", 64, "--out-dir", tmp_path)
        truth = tmp_path / "truth_cov.csv"
        out = tmp_path / "eval"
        assert run("evaluate", truth, "--truth", truth, "--out-dir", out) == 0
        printed = capsys.readouterr().out
        assert "MAE 0" in printed and "MSE 0" in printed
        last = (out / "eval.csv").read_text().strip().splitlines()[-1]
        assert last == "mean,0,0"

    def test_moving_block_truth_flags_q(self, tmp_path):
        run("simulate", "sim2", "--n", 128, "--out-dir", tmp_path)
        fit_out = tmp_path / "fit"
        run("fit", tmp_path / "panel.csv", "--out-dir", fit_out)
        out = tmp_path / "eval"
        code = run("evaluate", fit_out / "cov_path.csv", "--moving-block",
                   "--panel", tmp_path / "panel.csv", "--block-size", 21,
                   "--scale", "correlation", "--out-dir", out)
        assert code == 0
        header = (out / "eval.csv").read_text().splitlines()[0]
        assert "moving-block(q=21)" in header
        report = (out / "eval.csv").read_text().strip().splitlines()[-1]
        mae, mse = (float(v) for v in report.split(",")[1:])
        assert mae > 0 and mse > 0 and np.isfinite(mae) and np.isfinite(mse)

    def test_requires_exactly_one_truth_source(self, tmp_path):
        run("simulate", "sim2", "--n", 64, "--out-dir", tmp_path)
        truth = tmp_path / "truth_cov.csv"
        assert run("evaluate", truth, "--out-dir", tmp_path) == 2
        assert run("evaluate", truth, "--truth", truth, "--moving-block",
                   "--panel", tmp_path / "panel.csv", "--block-size", 21,
                   "--out-dir", tmp_path) == 2


class TestSelectBlock:
    def test_writes_diagnostics(self, tmp_path):
        panel_path = tmp_path / "panel.csv"
        write_iid_panel(panel_path, 400, 2, seed=2)
        out = tmp_path / "out"
        assert run("select-block", panel_path, "--candidates", 5, 11, 21, 41,
                   "--out-dir", out) == 0
        lines = (out / "block_selection.csv").read_text().strip().splitlines()
        assert lines[0] == "q,mae,mse,mae_diff,mse_diff,selected"
        assert len(lines) == 5
        assert sum(row.endswith("true") for row in lines[1:]) == 1

    def test_warns_when_no_candidate_stabilizes(self, tmp_path, capsys):
        # A zero threshold never stabilizes: the largest width is returned.
        panel_path = tmp_path / "panel.csv"
        write_iid_panel(panel_path, 200, 2, seed=2)
        assert run("select-block", panel_path, "--candidates", 5, 9, 15,
                   "--threshold", 0, "--out-dir", tmp_path / "out") == 0
        captured = capsys.readouterr()
        assert "warning: no candidate stabilized both losses" in captured.err
        assert "selected q=15 (stable=False)" in captured.out


class TestBenchmark:
    def test_single_replication_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run("benchmark", "--replications", 1, "--n", 256,
                       "--seed", 3, "--out-dir", out) == 0
        assert (a / "benchmark.csv").read_bytes() == (b / "benchmark.csv").read_bytes()
        lines = (a / "benchmark.csv").read_text().strip().splitlines()
        assert lines[0] == "model,scale,mae,mse,replications"
        assert len(lines) == 5  # two models x two scales
        assert (a / "failures.csv").read_text().strip() == "replication,model,error"

    def test_linalg_error_is_a_recorded_failure(self, tmp_path, monkeypatch):
        def singular_fit(panel, name, config):
            if name == "scgarch":
                raise np.linalg.LinAlgError("Singular matrix")
            return fit_model(panel, name, config)
        monkeypatch.setattr(experiments, "fit_model", singular_fit)
        assert run("benchmark", "--replications", 2, "--n", 256,
                   "--out-dir", tmp_path) == 0
        failures = (tmp_path / "failures.csv").read_text().strip().splitlines()
        assert failures[1:] == ["0,scgarch,Singular matrix", "1,scgarch,Singular matrix"]
        rows = (tmp_path / "benchmark.csv").read_text().strip().splitlines()[1:]
        assert [row.split(",")[-1] for row in rows] == ["0", "0", "2", "2"]

    def test_echo_names_the_noise_candidates_the_fits_used(self, tmp_path, monkeypatch):
        seen = []

        def record(config, jobs):
            seen.append(config.fit.state_noise)
            return BenchmarkResult([BenchmarkRow("scgarch", "covariance", 0.0, 0.0, 1)], [])
        monkeypatch.setattr(cli, "run_benchmark", record)
        tuned, fixed = tmp_path / "tuned", tmp_path / "fixed"
        assert run("benchmark", "--out-dir", tuned) == 0
        echo = (tuned / "config.echo").read_text().splitlines()
        assert f"kalman_q={' '.join(io.fmt(q) for q in seen[0])}" in echo
        assert not any(line.startswith("state_noise=") for line in echo)

        assert run("benchmark", "--kalman-q", 0.5, "--out-dir", fixed) == 0
        echo = (fixed / "config.echo").read_text().splitlines()
        assert "kalman_q=0.5" in echo
        assert not any(line.startswith("state_noise=") for line in echo)
        assert seen == [model.DEFAULT_TUNE_GRID, (0.5,)]

    @pytest.mark.parametrize("jobs", [0, -1, (os.cpu_count() or 1) + 1])
    def test_jobs_outside_cpu_range_is_exit_2(self, tmp_path, jobs):
        with pytest.raises(SystemExit) as exc:
            run("benchmark", "--jobs", jobs, "--out-dir", tmp_path)
        assert exc.value.code == 2
        assert not (tmp_path / "benchmark.csv").exists()

    def test_all_failed_property(self):
        rows = [BenchmarkRow("scgarch", "covariance", float("nan"), float("nan"), 0)]
        result = BenchmarkResult(rows, [(0, "scgarch", "boom")])
        assert result.all_failed


class TestConfigFile:
    def test_file_overrides_defaults_and_flags_override_file(self, tmp_path):
        panel_path = tmp_path / "panel.csv"
        write_iid_panel(panel_path, 120, 1, seed=1)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("kalman-q = 0.5\n# comment\nkalman-kappa = 2.5\n")

        out1 = tmp_path / "o1"
        assert run("fit", panel_path, "--config", cfg, "--out-dir", out1) == 0
        echo = (out1 / "config.echo").read_text()
        assert "kalman_q=0.5" in echo and "kalman_kappa=2.5" in echo

        out2 = tmp_path / "o2"
        assert run("fit", panel_path, "--config", cfg, "--kalman-q", 0.25,
                   "--out-dir", out2) == 0
        assert "kalman_q=0.25" in (out2 / "config.echo").read_text()

    def test_unknown_key_is_exit_2(self, tmp_path):
        panel_path = tmp_path / "panel.csv"
        write_iid_panel(panel_path, 120, 1, seed=1)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("not-an-option = 1\n")
        assert run("fit", panel_path, "--config", cfg, "--out-dir", tmp_path) == 2

    def test_fixed_count_option_in_config_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("deltas = 64 32 16\nn = 64\n")
        from_file, from_flags = tmp_path / "file", tmp_path / "flags"
        assert run("simulate", "sim2", "--config", cfg, "--out-dir", from_file) == 0
        assert run("simulate", "sim2", "--n", 64, "--deltas", 64, 32, 16,
                   "--out-dir", from_flags) == 0
        for name in ("panel.csv", "truth_cov.csv"):
            assert (from_file / name).read_bytes() == (from_flags / name).read_bytes()
        for out in (from_file, from_flags):
            assert "deltas=64 32 16" in (out / "config.echo").read_text().splitlines()

    def test_boolean_in_config_file(self, tmp_path):
        panel_path = tmp_path / "panel.csv"
        write_iid_panel(panel_path, 120, 1, seed=1)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("two-pass = true\n")
        out = tmp_path / "out"
        assert run("fit", panel_path, "--config", cfg, "--out-dir", out) == 0
        assert "two_pass=True" in (out / "config.echo").read_text()


    def test_echo_names_the_noise_candidates_the_fit_used(self, tmp_path):
        panel_path = tmp_path / "panel.csv"
        write_iid_panel(panel_path, 120, 2, seed=1)
        tuned, fixed = tmp_path / "tuned", tmp_path / "fixed"
        assert run("fit", panel_path, "--tune-state-noise", "--out-dir", tuned) == 0
        echo = (tuned / "config.echo").read_text().splitlines()
        grid = " ".join(io.fmt(q) for q in model.DEFAULT_TUNE_GRID)
        assert f"kalman_q={grid}" in echo
        assert not any(line.startswith(("state_noise=", "tune_state_noise="))
                       for line in echo)

        assert run("fit", panel_path, "--kalman-q", 0.5, "--out-dir", fixed) == 0
        echo = (fixed / "config.echo").read_text().splitlines()
        assert "kalman_q=0.5" in echo
        assert not any(line.startswith("state_noise=") for line in echo)

    def test_required_option_from_config_file(self, tmp_path):
        panel_path = tmp_path / "panel.csv"
        write_iid_panel(panel_path, 400, 2, seed=2)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("candidates = 5 11 21\n")
        from_file, from_flags = tmp_path / "file", tmp_path / "flags"
        assert run("select-block", panel_path, "--config", cfg,
                   "--out-dir", from_file) == 0
        assert run("select-block", panel_path, "--candidates", 5, 11, 21,
                   "--out-dir", from_flags) == 0
        name = "block_selection.csv"
        assert (from_file / name).read_bytes() == (from_flags / name).read_bytes()

    def test_required_option_missing_from_config_file_is_exit_2(self, tmp_path, capsys):
        panel_path = tmp_path / "panel.csv"
        write_iid_panel(panel_path, 400, 2, seed=2)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("threshold = 0.1\n")
        assert run("select-block", panel_path, "--config", cfg,
                   "--out-dir", tmp_path) == 2
        assert "--candidates" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["deltas = 64 x 16", "deltas = 64 32",
                                      "two-pass = maybe"])
    def test_bad_value_names_file_and_line(self, tmp_path, capsys, text):
        command = "fit" if text.startswith("two-pass") else "simulate"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"# bad value on line 2\n{text}\n")
        args = [tmp_path / "panel.csv"] if command == "fit" else ["sim2"]
        out = tmp_path / "out"
        assert run(command, *args, "--config", cfg, "--out-dir", out) == 2
        key = text.split("=")[0].strip()
        assert f"{cfg}, line 2: option '{key}'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, flags", [
        ("fit", ["--kalman-q", 0.01, "--ordering", "bic-beam"]),
        ("fit", ["--tune-state-noise", "--two-pass"]),
        ("evaluate", ["--truth", "truth/truth_cov.csv"]),
        ("select-block", ["--candidates", 5, 11, 21]),
        ("simulate", ["--n", 64, "--deltas", 64, 32, 16]),
        ("benchmark", ["--replications", 1, "--n", 128]),
    ], ids=["fit-fixed", "fit-tuned", "evaluate-truth", "select-block", "simulate-sim2",
            "benchmark"])
    def test_echo_reruns_the_command(self, tmp_path, monkeypatch, command, flags):
        monkeypatch.chdir(tmp_path)
        write_iid_panel(tmp_path / "panel.csv", 400, 2, seed=4)
        assert run("simulate", "sim2", "--n", 64, "--out-dir", "truth") == 0
        assert run("simulate", "sim2", "--n", 64, "--seed", 1, "--out-dir", "est") == 0
        positionals = {"fit": ["panel.csv"], "evaluate": ["est/truth_cov.csv"],
                       "select-block": ["panel.csv"], "simulate": ["sim2"],
                       "benchmark": []}[command]
        first, again = tmp_path / "first", tmp_path / "again"
        assert run(command, *positionals, *flags, "--out-dir", first) == 0
        echo = first / "config.echo"
        assert run(command, *positionals, "--config", echo, "--out-dir", again) == 0
        names = sorted(path.name for path in first.iterdir())
        assert names == sorted(path.name for path in again.iterdir())
        for name in names:
            if name != "config.echo":
                assert (again / name).read_bytes() == (first / name).read_bytes(), name

        # The rerun's echo differs only in where it wrote and what it read.
        def settings(out):
            return [line for line in (out / "config.echo").read_text().splitlines()
                    if not line.startswith(("out_dir=", "config="))]
        assert settings(again) == settings(first)
        assert f"config={echo}" in (again / "config.echo").read_text().splitlines()

    @pytest.mark.parametrize("truth", [
        ["--truth", "t/truth_cov.csv"],
        ["--moving-block", "--panel", "t/panel.csv", "--block-size", 5],
    ], ids=["truth", "moving-block"])
    def test_echo_reruns_evaluate_from_a_sibling_directory(self, tmp_path, monkeypatch,
                                                           truth):
        # The echo records absolute paths, so it reads back from anywhere.
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        monkeypatch.chdir(tmp_path / "a")
        assert run("simulate", "sim2", "--n", 64, "--out-dir", "t") == 0
        assert run("simulate", "sim2", "--n", 64, "--seed", 1, "--out-dir", "e") == 0
        assert run("evaluate", "e/truth_cov.csv", *truth, "--out-dir", "o1") == 0
        monkeypatch.chdir(tmp_path / "b")
        assert run("evaluate", "../a/e/truth_cov.csv", "--config", "../a/o1/config.echo",
                   "--out-dir", "o2") == 0
        assert ((tmp_path / "b" / "o2" / "eval.csv").read_bytes()
                == (tmp_path / "a" / "o1" / "eval.csv").read_bytes())

    def test_flags_win_over_an_echo(self, tmp_path):
        panel_path = tmp_path / "panel.csv"
        write_iid_panel(panel_path, 120, 2, seed=1)
        first, again = tmp_path / "first", tmp_path / "again"
        assert run("fit", panel_path, "--kalman-q", 0.01, "--out-dir", first) == 0
        assert run("fit", panel_path, "--config", first / "config.echo",
                   "--kalman-q", 0.02, "--out-dir", again) == 0
        assert "kalman_q=0.02" in (again / "config.echo").read_text().splitlines()
        assert ((again / "cov_path.csv").read_bytes()
                != (first / "cov_path.csv").read_bytes())

    def test_misspelt_key_in_an_echo_is_exit_2(self, tmp_path, capsys):
        panel_path = tmp_path / "panel.csv"
        write_iid_panel(panel_path, 120, 2, seed=1)
        first = tmp_path / "first"
        assert run("fit", panel_path, "--out-dir", first) == 0
        echo = first / "config.echo"
        echo.write_text(echo.read_text() + "kalman-qq=0.1\n")
        again = tmp_path / "again"
        assert run("fit", panel_path, "--config", echo, "--out-dir", again) == 2
        assert "unknown option 'kalman-qq'" in capsys.readouterr().err
        assert not again.exists()

    def test_hash_inside_a_value_is_kept(self, tmp_path):
        panel_path = tmp_path / "panel.csv"
        write_iid_panel(panel_path, 120, 1, seed=1)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"  # a comment line\nout-dir = {tmp_path / 'dir#2'}  # a note\n")
        assert run("fit", panel_path, "--config", cfg) == 0
        assert (tmp_path / "dir#2" / "cov_path.csv").exists()
        assert not (tmp_path / "dir").exists()

    @pytest.mark.parametrize("command", ["fit", "benchmark"])
    def test_echoed_tuning_grid_sets_kalman_q(self, tmp_path, command):
        grid = " ".join(io.fmt(q) for q in model.DEFAULT_TUNE_GRID)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"kalman_q={grid}\n")
        sub = cli.build_parser()[1][command]
        assert cli.load_config_overrides(cfg, sub) == {
            "kalman_q": list(model.DEFAULT_TUNE_GRID)}

    @pytest.mark.parametrize("text, expected", [
        ("tune-state-noise = true", {"kalman_q": model.DEFAULT_TUNE_GRID}),
        # a fixed-noise echo written while tuning had an option of its own
        ("kalman_q=0.01\ntune_state_noise=False", {"kalman_q": [0.01]}),
        ("two-pass = false", {}),
    ])
    def test_flag_line_stores_the_flag_s_value(self, tmp_path, text, expected):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text + "\n")
        assert cli.load_config_overrides(cfg, cli.build_parser()[1]["fit"]) == expected

    def test_tuning_from_a_config_file(self, tmp_path):
        panel_path = tmp_path / "panel.csv"
        write_iid_panel(panel_path, 120, 2, seed=1)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("tune-state-noise = true\n")
        from_file, from_flag = tmp_path / "file", tmp_path / "flag"
        assert run("fit", panel_path, "--config", cfg, "--out-dir", from_file) == 0
        assert run("fit", panel_path, "--tune-state-noise", "--out-dir", from_flag) == 0
        assert ((from_file / "cov_path.csv").read_bytes()
                == (from_flag / "cov_path.csv").read_bytes())

    def test_other_state_noise_grid_is_exit_2(self, tmp_path, capsys):
        # A tuned echo written while the grid had a line of its own must be
        # converted: its state_noise line names no option.
        panel_path = tmp_path / "panel.csv"
        write_iid_panel(panel_path, 120, 2, seed=1)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("state_noise = 0.001 0.01\n")
        assert run("fit", panel_path, "--config", cfg, "--out-dir", tmp_path / "o") == 2
        assert (f"{cfg}, line 1: unknown option 'state_noise'"
                in capsys.readouterr().err)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("text, message", [
        ("kalman-q 0.5", "line 2: expected key=value"),
        ("kalman-q =", "line 2: option 'kalman-q': expected at least one value"),
        ("model = garch", "line 2: option 'model': 'garch' not in"),
        ("tune-state-noise = true", "line 2: option 'tune-state-noise': sets "
                                    "kalman_q, as line 1 does"),
        ("kalman-q = 0.2", "line 2: option 'kalman-q': sets kalman_q, as line 1 does"),
    ])
    def test_bad_line_is_exit_2_naming_file_and_line(self, tmp_path, capsys, text,
                                                     message):
        panel_path = tmp_path / "panel.csv"
        write_iid_panel(panel_path, 120, 2, seed=1)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"kalman_q = 0.1\n{text}\n")
        out = tmp_path / "out"
        assert run("fit", panel_path, "--config", cfg, "--out-dir", out) == 2
        assert f"{cfg}, {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_unreadable_config_file_is_exit_2(self, tmp_path, capsys):
        panel_path = tmp_path / "panel.csv"
        write_iid_panel(panel_path, 120, 2, seed=1)
        out = tmp_path / "out"
        missing = tmp_path / "missing.cfg"
        assert run("fit", panel_path, "--config", missing, "--out-dir", out) == 2
        err = capsys.readouterr().err
        assert "cannot read config file" in err and str(missing) in err
        assert not out.exists()


class TestExperimentJobs:
    """``jobs`` is bounded to [1, cpu_count] before any worker starts."""

    @pytest.fixture
    def no_pool(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a process pool was created")
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)

    @pytest.mark.parametrize("argv", [["--replications", "0"], ["--sizes", "0"],
                                      ["--base-seed", "-1"], ["--sizes", "20", "20"],
                                      ["--q-true", "nan"], ["--meas-var", "inf"]])
    def test_script_rejects_out_of_range(self, script, no_pool, argv):
        with pytest.raises(SystemExit) as exc:
            script.main(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize("jobs", [0, -1, (os.cpu_count() or 1) + 1])
    def test_experiments_reject_out_of_range(self, no_pool, jobs):
        with pytest.raises(ValueError, match="jobs"):
            run_benchmark(BenchmarkConfig(replications=1, n=128), jobs=jobs)

    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two CPUs")
    def test_worker_processes_match_this_process(self):
        bench = BenchmarkConfig(replications=2, n=128)
        assert run_benchmark(bench, jobs=2) == run_benchmark(bench, jobs=1)


@pytest.mark.parametrize("cfg", [
    Sim1BiasConfig(sizes=(1, 5, 11), replications=7, q_true=0.0, meas_var=3.0),
    Sim1BiasConfig(sizes=(30,), replications=2 * experiments.SIM1_BLOCK + 3),
], ids=["sizes-around-last-k", "three-blocks"])
def test_sim1_bias_is_the_mean_of_single_regression_runs(cfg):
    # Oracle: one filter_regression run per replication, bit for bit.
    kcfg = KalmanConfig.default(1, meas_var=cfg.meas_var, state_noise=cfg.q_true)
    expected = {}
    for i, n in enumerate(cfg.sizes):
        biases = []
        for r in range(cfg.replications):
            data = generate_sim1(Sim1Config(n=n, q_true=cfg.q_true, meas_var=cfg.meas_var,
                                            seed=cfg.base_seed + i * cfg.replications + r))
            run = filter_regression(data.y, data.x.reshape(-1, 1), kcfg)
            biases.append(float(np.mean(run.phi_path[-SIM1_LAST_K:, 0]
                                        - data.phi_true[-SIM1_LAST_K:])))
        expected[n] = float(np.mean(biases))
    assert run_sim1_bias(cfg) == expected


@pytest.mark.parametrize("settings", [dict(replications=0), dict(sizes=()),
                                      dict(sizes=(20, 0)), dict(base_seed=-1),
                                      dict(sizes=(20, 20)), dict(q_true=np.nan),
                                      dict(meas_var=0.0)])
def test_sim1_bias_config_rejects_out_of_range(settings):
    with pytest.raises(ValueError):
        Sim1BiasConfig(**settings)


@pytest.mark.parametrize("make", [
    lambda: Sim1Config(n=5.5),
    lambda: Sim2Config(n=40.5),
    lambda: BenchmarkConfig(n=60.5),
    lambda: BenchmarkConfig(replications=1.5),
    lambda: Sim1BiasConfig(sizes=(5.5,)),
    lambda: Sim1BiasConfig(replications=1.5),
], ids=["Sim1Config.n", "Sim2Config.n", "BenchmarkConfig.n",
        "BenchmarkConfig.replications", "Sim1BiasConfig.sizes",
        "Sim1BiasConfig.replications"])
def test_count_must_be_an_integer(make):
    # Rejected when the config is made, not by numpy once generation starts.
    with pytest.raises(ValueError, match="must be an integer"):
        make()


def test_numpy_integer_counts_are_accepted():
    count = np.int64(64)
    Sim1Config(n=count)
    Sim2Config(n=count)
    BenchmarkConfig(n=count, replications=np.int64(2))
    Sim1BiasConfig(sizes=(count,), replications=count)


@pytest.mark.parametrize("command, dest, expected", [
    ("simulate", "n", Sim2Config().n),
    ("simulate", "deltas", Sim2Config().deltas),
    ("simulate", "diag", Sim2Config().diag),
    ("simulate", "q_true", Sim1Config(n=1).q_true),
    ("simulate", "meas_var", Sim1Config(n=1).meas_var),
    ("fit", "kalman_kappa", ScgarchConfig().kappa),
    ("fit", "kalman_q", ScgarchConfig().state_noise),
    ("benchmark", "kalman_kappa", ScgarchConfig().kappa),
    ("benchmark", "replications", BenchmarkConfig().replications),
    ("benchmark", "n", BenchmarkConfig().n),
    ("sim1_consistency.py", "sizes", Sim1BiasConfig().sizes),
    ("sim1_consistency.py", "replications", Sim1BiasConfig().replications),
    ("sim1_consistency.py", "base_seed", Sim1BiasConfig().base_seed),
    ("sim1_consistency.py", "q_true", Sim1BiasConfig().q_true),
    ("sim1_consistency.py", "meas_var", Sim1BiasConfig().meas_var),
    ("benchmark", "kalman_q", BenchmarkConfig().fit.state_noise),
])
def test_parser_default_is_the_config_default(script, command, dest, expected):
    if command == "sim1_consistency.py":
        parser = script.build_parser()
    else:
        parser = cli.build_parser()[1][command]
    assert parser.get_default(dest) == expected
