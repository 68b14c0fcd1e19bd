import importlib.util
import os
from pathlib import Path

import numpy as np
import pytest

from scgarch import cli, experiments, io, model
from scgarch.cli import main
from scgarch.experiments import (
    BenchmarkConfig,
    BenchmarkResult,
    BenchmarkRow,
    Sim1BiasConfig,
    run_benchmark,
    run_sim1_bias,
)
from scgarch.garch import GarchParams, garch_fit, simulate_garch
from scgarch.model import CovariancePath, TimeSeriesPanel, fit_model


SIM1_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "sim1_consistency.py"


def run(*argv):
    return main([str(a) for a in argv])


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
    ["fit", "panel.csv", "--ordering", "bic-exhaustive", "--bic-limit", 2],
    ["benchmark", "--n", 10],
])
def test_rejected_run_creates_no_directory(tmp_path, argv):
    write_iid_panel(tmp_path / "panel.csv", 120, 3, seed=2)
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

    def test_negative_seed_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run("simulate", "sim2", "--seed", -1, "--out-dir", tmp_path)
        assert exc.value.code == 2

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

    @pytest.mark.parametrize("option", ["--bic-samples", "--bic-limit"])
    @pytest.mark.parametrize("value", [0, -3])
    def test_non_positive_search_size_is_exit_2(self, tmp_path, option, value):
        panel_path = tmp_path / "panel.csv"
        write_iid_panel(panel_path, 120, 2, seed=1)
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            run("fit", panel_path, "--ordering", "bic-sampled", option, value,
                "--out-dir", out)
        assert exc.value.code == 2
        assert not (out / "ordering.txt").exists()

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

    @pytest.mark.parametrize("jobs", [0, -1, (os.cpu_count() or 1) + 1])
    def test_jobs_outside_cpu_range_is_exit_2(self, tmp_path, jobs):
        with pytest.raises(SystemExit) as exc:
            run("benchmark", "--jobs", jobs, "--out-dir", tmp_path)
        assert exc.value.code == 2
        assert not (tmp_path / "benchmark.csv").exists()

    def test_all_failed_property(self):
        rows = [BenchmarkRow("scgarch", "covariance", float("nan"), float("nan"), 0)]
        result = BenchmarkResult(rows, [(0, "scgarch", "boom")], 1)
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


class TestExperimentJobs:
    """``jobs`` is bounded to [1, cpu_count] before any worker starts."""

    @pytest.fixture
    def no_pool(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a process pool was created")
        monkeypatch.setattr(experiments, "ProcessPoolExecutor", refuse)

    @pytest.fixture
    def script(self):
        spec = importlib.util.spec_from_file_location("sim1_consistency", SIM1_SCRIPT)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    @pytest.mark.parametrize("argv", [["--jobs", "0"], ["--jobs", "-1"],
                                      ["--jobs", str((os.cpu_count() or 1) + 1)],
                                      ["--replications", "0"]])
    def test_script_rejects_out_of_range(self, script, no_pool, argv):
        with pytest.raises(SystemExit) as exc:
            script.main(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize("jobs", [0, -1, (os.cpu_count() or 1) + 1])
    def test_experiments_reject_out_of_range(self, no_pool, jobs):
        with pytest.raises(ValueError, match="jobs"):
            run_sim1_bias(Sim1BiasConfig(sizes=(20,), replications=2), jobs=jobs)
        with pytest.raises(ValueError, match="jobs"):
            run_benchmark(BenchmarkConfig(replications=1, n=128), jobs=jobs)
