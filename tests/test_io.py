import numpy as np
import pytest

from scgarch import io
from scgarch.exceptions import PanelFormatError
from scgarch.garch import GarchFit, GarchParams
from scgarch.model import CovariancePath, TimeSeriesPanel


class TestPanelRoundTrip:
    def test_exact_values(self, tmp_path):
        rng = np.random.default_rng(0)
        panel = TimeSeriesPanel(rng.standard_normal((40, 3)) * 1e-3,
                                ["a", "b", "c"])
        path = tmp_path / "panel.csv"
        io.write_panel(path, panel)
        back = io.read_panel(path)
        np.testing.assert_array_equal(back.values, panel.values)
        assert back.labels == panel.labels

    def test_missing_cell_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1.0,2.0\n3.0\n")
        with pytest.raises(PanelFormatError, match="line 3"):
            io.read_panel(path)

    def test_bad_float_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1.0,2.0\n3.0,oops\n4.0,5.0\n")
        with pytest.raises(PanelFormatError, match="line 3"):
            io.read_panel(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(PanelFormatError):
            io.read_panel(path)


class TestCovPathRoundTrip:
    def test_exact_values(self, tmp_path):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((7, 2, 2))
        cov = CovariancePath(0.5 * (a + a.transpose(0, 2, 1)))
        path = tmp_path / "cov.csv"
        io.write_cov_path(path, cov)
        back = io.read_cov_path(path)
        np.testing.assert_array_equal(back.sigmas, cov.sigmas)

    def test_missing_entry(self, tmp_path):
        path = tmp_path / "cov.csv"
        path.write_text("t,i,j,value\n1,1,1,1.0\n1,2,2,1.0\n")
        with pytest.raises(PanelFormatError, match="missing"):
            io.read_cov_path(path)

    def test_wrong_header(self, tmp_path):
        path = tmp_path / "cov.csv"
        path.write_text("time,i,j,v\n1,1,1,1.0\n")
        with pytest.raises(PanelFormatError, match="header"):
            io.read_cov_path(path)


def test_config_echo_is_sorted_key_value(tmp_path):
    path = tmp_path / "config.echo"
    io.write_config_echo(path, {"b": 2, "a": 0.5, "c": [1, 2], "d": "x"})
    assert path.read_text() == "a=0.5\nb=2\nc=1 2\nd=x\n"


def test_garch_params_name_the_boundary(tmp_path):
    fits = [GarchFit(GarchParams(0.5, 0.0, 0.3), np.ones(3), -3.0, True, 4, 1.0, "alpha=0"),
            GarchFit(GarchParams(0.2, 0.1, 0.8), np.ones(3), -2.5, False, 9, 1.0)]
    path = tmp_path / "garch_params.csv"
    io.write_garch_params(path, fits, ["y1", "y2"])
    assert path.read_text().splitlines() == [
        "series,omega,alpha,beta,loglik,converged,boundary",
        "y1,0.5,0,0.29999999999999999,-3,true,alpha=0",
        "y2,0.20000000000000001,0.10000000000000001,0.80000000000000004,-2.5,false,none",
    ]
