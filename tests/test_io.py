import csv
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scgarch import io
from scgarch.evaluation import EvalReport
from scgarch.exceptions import DimensionMismatch, PanelFormatError
from scgarch.garch import GarchFit, GarchParams
from scgarch.model import CovariancePath, TimeSeriesPanel

CHUNK = io._CHUNK_STEPS
SIZES = [1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3]
SPECIAL = [-0.0, np.nan, np.inf, -np.inf, 5e-324, 1e300, 1e-300, -1e300]
FINITE_SPECIAL = [-0.0, 5e-324, 1e300, 1e-300, -1e300]


def oracle_table(path, header, rows, comment=None):
    """The per-entry writer the chunked writers replaced."""
    with open(path, "w", newline="") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def fmt(x):
    return format(float(x), ".17g")


def values_with_specials(shape, seed, specials):
    """Random draws of mixed magnitude with ``specials`` scattered in."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9, shape)
    flat = a.reshape(-1)
    flat[rng.choice(flat.size, min(len(specials), flat.size), replace=False)] = \
        specials[:flat.size]
    return a


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

    def test_labels_round_trip_without_surrounding_whitespace(self, tmp_path):
        panel = TimeSeriesPanel(np.eye(3)[:, :2], [" a", "b "])
        assert panel.labels == ["a", "b"]
        io.write_panel(tmp_path / "panel.csv", panel)
        assert io.read_panel(tmp_path / "panel.csv").labels == panel.labels

    def test_labels_equal_once_stripped_are_duplicates(self):
        # The reader would strip them to the same label.
        with pytest.raises(DimensionMismatch):
            TimeSeriesPanel(np.eye(3)[:, :2], ["a", " a"])

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

    def test_special_values(self, tmp_path):
        values = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1.5, -2.0])
        cov = CovariancePath(values.reshape(2, 2, 2))
        path = tmp_path / "cov.csv"
        io.write_cov_path(path, cov)
        back = io.read_cov_path(path)
        np.testing.assert_array_equal(back.sigmas.view(np.int64), cov.sigmas.view(np.int64))

    @pytest.mark.parametrize("row", ["1,0,1,1.0", "1,1,3,1.0", "-1,1,1,1.0"])
    def test_index_out_of_range_names_its_line(self, tmp_path, row):
        path = tmp_path / "cov.csv"
        io.write_cov_path(path, CovariancePath(np.broadcast_to(np.eye(2), (3, 2, 2))))
        with open(path, "a") as fh:
            fh.write(row + "\n")
        with pytest.raises(PanelFormatError, match=r"line 14: index \(.*\) out of range"):
            io.read_cov_path(path)

    def test_missing_entry(self, tmp_path):
        path = tmp_path / "cov.csv"
        path.write_text("t,i,j,value\n1,1,1,1.0\n1,2,2,1.0\n")
        with pytest.raises(PanelFormatError, match="missing"):
            io.read_cov_path(path)

    def test_duplicate_entry_names_its_line(self, tmp_path):
        path = tmp_path / "cov.csv"
        io.write_cov_path(path, CovariancePath(np.broadcast_to(np.eye(2), (3, 2, 2))))
        with open(path, "a") as fh:
            fh.write("1,1,1,99.0\n")
        with pytest.raises(PanelFormatError, match=r"line 14: duplicate entry \(1, 1, 1\)"):
            io.read_cov_path(path)

    def test_wrong_header(self, tmp_path):
        path = tmp_path / "cov.csv"
        path.write_text("time,i,j,v\n1,1,1,1.0\n")
        with pytest.raises(PanelFormatError, match="header"):
            io.read_cov_path(path)


PANEL_VALUES = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308])
PATH_VALUES = st.floats() | st.sampled_from([np.nan, np.inf, -np.inf, -0.0])


def insert_blank_lines(path, data):
    """Insert blank lines, ``\\n`` or ``\\r\\n``, anywhere after the header."""
    lines = path.read_bytes().splitlines(keepends=True)
    for k in sorted(data.draw(st.sets(st.integers(1, len(lines)), max_size=4)), reverse=True):
        lines.insert(k, data.draw(st.sampled_from([b"\n", b"\r\n"])))
    path.write_bytes(b"".join(lines))


@settings(max_examples=40, deadline=None)
@given(data=st.data(), p=st.integers(1, 3))
def test_panel_round_trip_with_blank_lines(tmp_path_factory, data, p):
    n = data.draw(st.integers(p + 1, 6))
    values = np.array(data.draw(st.lists(PANEL_VALUES, min_size=n * p,
                                         max_size=n * p))).reshape(n, p)
    path = tmp_path_factory.mktemp("panel") / "panel.csv"
    io.write_panel(path, TimeSeriesPanel(values))
    insert_blank_lines(path, data)
    back = io.read_panel(path)
    np.testing.assert_array_equal(back.values.view(np.int64), values.view(np.int64))
    assert back.labels == [f"y{j + 1}" for j in range(p)]


@settings(max_examples=40, deadline=None)
@given(data=st.data(), p=st.integers(1, 3))
def test_cov_path_round_trip_with_blank_lines(tmp_path_factory, data, p):
    n = data.draw(st.integers(1, 4))
    sigmas = np.array(data.draw(st.lists(PATH_VALUES, min_size=n * p * p,
                                         max_size=n * p * p))).reshape(n, p, p)
    path = tmp_path_factory.mktemp("cov") / "cov.csv"
    io.write_cov_path(path, CovariancePath(sigmas))
    insert_blank_lines(path, data)
    back = io.read_cov_path(path)
    # NaN is written as "nan", whatever its sign and payload.
    expected = np.where(np.isnan(sigmas), np.nan, sigmas)
    np.testing.assert_array_equal(back.sigmas.view(np.int64), expected.view(np.int64))


def test_bad_cell_after_blank_lines_names_its_line_in_the_file(tmp_path):
    path = tmp_path / "panel.csv"
    path.write_text("a,b\n1.0,2.0\n\n\r\n3.0,4.0\n5.0,oops\n6.0,7.0\n")
    with pytest.raises(PanelFormatError, match="line 6"):
        io.read_panel(path)
    path.write_text("a,b\n1.0,2.0\n\n3.0\n")
    with pytest.raises(PanelFormatError, match="line 4: expected 2 cells, got 1"):
        io.read_panel(path)


@pytest.mark.parametrize("index", ["1.0", "1e0"])
def test_cov_path_index_must_be_an_integer(tmp_path, index):
    path = tmp_path / "cov.csv"
    path.write_text(f"t,i,j,value\n1,1,1,1.0\n\n{index},1,2,0.5\n1,2,1,0.5\n1,2,2,1.0\n")
    with pytest.raises(PanelFormatError, match=f"line 4: .*'{index}'"):
        io.read_cov_path(path)


def test_quoted_numeric_cells_are_read(tmp_path):
    path = tmp_path / "panel.csv"
    path.write_text('"a","b"\n"1.5",2.5\n3.5,"-4.5e-3"\n" 5.5 ",6.5\n')
    back = io.read_panel(path)
    assert back.labels == ["a", "b"]
    np.testing.assert_array_equal(back.values, [[1.5, 2.5], [3.5, -4.5e-3], [5.5, 6.5]])
    path = tmp_path / "cov.csv"
    path.write_text('t,i,j,value\n"1","1","1","0.25"\n')
    np.testing.assert_array_equal(io.read_cov_path(path).sigmas, [[[0.25]]])


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


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("p", [1, 2, 6])
class TestSameBytesAsCsvWriter:
    def test_cov_path(self, tmp_path, n, p):
        sigmas = values_with_specials((n, p, p), n * 10 + p, SPECIAL)
        io.write_cov_path(tmp_path / "new.csv", CovariancePath(sigmas))
        oracle_table(tmp_path / "old.csv", ["t", "i", "j", "value"],
                     ((t + 1, i + 1, j + 1, fmt(sigmas[t, i, j]))
                      for t in range(n) for i in range(p) for j in range(p)))
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_coeff_path(self, tmp_path, n, p):
        t_path = values_with_specials((n, p, p), n * 10 + p + 1, SPECIAL + [0.0])
        io.write_coeff_path(tmp_path / "new.csv", t_path)
        oracle_table(tmp_path / "old.csv", ["t", "j", "k", "phi"],
                     ((t + 1, j + 1, k + 1, fmt(-t_path[t, j, k]))
                      for t in range(n) for j in range(1, p) for k in range(j)))
        new = (tmp_path / "new.csv").read_bytes()
        assert new == (tmp_path / "old.csv").read_bytes()
        if p == 1:
            assert new == b"t,j,k,phi\r\n"

    def test_panel(self, tmp_path, n, p):
        values = values_with_specials((n + p, p), n * 10 + p + 2, FINITE_SPECIAL)
        panel = TimeSeriesPanel(values, [f"s,{j}" if j else 'q"0' for j in range(p)])
        io.write_panel(tmp_path / "new.csv", panel)
        oracle_table(tmp_path / "old.csv", panel.labels,
                     ([fmt(v) for v in row] for row in panel.values))
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_eval_report(self, tmp_path, n, p):
        losses = values_with_specials((n, 2), n * 10 + p + 3, SPECIAL)
        report = EvalReport(losses[:, 0], losses[:, 1], 0.1 * p, np.nan)
        io.write_eval_report(tmp_path / "new.csv", report, comment="truth: x; scale: y")
        oracle_table(tmp_path / "old.csv", ["t", "mae", "mse"],
                     [[t, fmt(mae), fmt(mse)] for t, (mae, mse) in enumerate(losses, 1)]
                     + [["mean", fmt(report.mae), fmt(report.mse)]],
                     comment="truth: x; scale: y")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_sim1_columns_same_bytes(tmp_path):
    values = values_with_specials((CHUNK + 1, 3), 5, SPECIAL)
    io.write_columns(tmp_path / "new.csv", ["y", "x", "phi_true"], values)
    oracle_table(tmp_path / "old.csv", ["y", "x", "phi_true"],
                 ((fmt(y), fmt(x), fmt(p)) for y, x, p in values))
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


# Bit patterns a column may hold at every step: both zeros, both infinities,
# the smallest subnormal and NaNs with different payloads and signs.
CONSTANT_BITS = [0, -(1 << 63), 0x3FF0000000000000, 0x7FF0000000000000,
                 -0x0010000000000000, 1, 0x7FF8000000000000, 0x7FF8000000000001,
                 -0x0008000000000000, 0x7FF0000000000003]


@st.composite
def structured_columns(draw, width):
    """(n, width) values whose columns are random, constant, copies of an
    earlier column, copies that differ from it at one step only, or copies
    with two steps swapped (same first entry and bit sum)."""
    n = draw(st.sampled_from(SIZES) | st.integers(1, 3 * CHUNK))
    values = values_with_specials((n, width), draw(st.integers(0, 2**32 - 1)),
                                  SPECIAL)
    bits = values.view(np.int64)
    for m in range(width):
        kind = draw(st.sampled_from(["random", "constant", "copy", "copy_but_one",
                                     "copy_swapped"]))
        if kind == "constant":
            bits[:, m] = draw(st.sampled_from(CONSTANT_BITS))
        elif kind != "random" and m > 0:
            bits[:, m] = bits[:, draw(st.integers(0, m - 1))]
            if kind == "copy_but_one":
                step = draw(st.sampled_from([0, n - 1]) | st.integers(0, n - 1))
                # The last mantissa bit or the sign: 1 ulp, -0.0 vs 0.0, or
                # another NaN payload.
                bits[step, m] ^= draw(st.sampled_from([1, -(1 << 63)]))
            elif kind == "copy_swapped" and n > 2:
                a, b = draw(st.sampled_from([(n - 2, n - 1), (1, n - 1)]))
                bits[[a, b], m] = bits[[b, a], m]
    return values


@settings(max_examples=60, deadline=None)
@given(data=st.data(), p=st.integers(1, 4))
def test_cov_path_with_repeated_columns_same_bytes(tmp_path_factory, data, p):
    columns = data.draw(structured_columns(p * p))
    n = len(columns)
    sigmas = columns.reshape(n, p, p)
    tmp = tmp_path_factory.mktemp("cov")
    io.write_cov_path(tmp / "new.csv", CovariancePath(sigmas))
    oracle_table(tmp / "old.csv", ["t", "i", "j", "value"],
                 ((t + 1, i + 1, j + 1, fmt(sigmas[t, i, j]))
                  for t in range(n) for i in range(p) for j in range(p)))
    assert (tmp / "new.csv").read_bytes() == (tmp / "old.csv").read_bytes()


@settings(max_examples=60, deadline=None)
@given(data=st.data(), p=st.integers(1, 5))
def test_coeff_path_with_repeated_columns_same_bytes(tmp_path_factory, data, p):
    j, k = np.tril_indices(p, -1)
    columns = data.draw(structured_columns(len(j)))
    n = len(columns)
    t_path = np.zeros((n, p, p))
    t_path[:, j, k] = columns
    tmp = tmp_path_factory.mktemp("coeff")
    io.write_coeff_path(tmp / "new.csv", t_path)
    oracle_table(tmp / "old.csv", ["t", "j", "k", "phi"],
                 ((t + 1, a + 1, b + 1, fmt(-t_path[t, a, b]))
                  for t in range(n) for a, b in zip(j, k)))
    assert (tmp / "new.csv").read_bytes() == (tmp / "old.csv").read_bytes()


@settings(max_examples=60, deadline=None)
@given(data=st.data(), p=st.integers(1, 4), steps=st.sampled_from([1, 3, 7, CHUNK + 5]))
def test_paths_written_in_blocks_same_bytes(tmp_path_factory, data, p, steps):
    # Each block either keeps the previous block's template or, when its
    # columns break that template's constants or equalities, gets its own.
    sigmas = data.draw(structured_columns(p * p)).reshape(-1, p, p)
    n = len(sigmas)
    j, k = np.tril_indices(p, -1)
    t_path = np.zeros((n, p, p))
    t_path[:, j, k] = sigmas[:, j, k]
    tmp = tmp_path_factory.mktemp("blocks")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(io, "_BLOCK_STEPS", steps)
        io.write_cov_path(tmp / "cov.csv", CovariancePath(sigmas))
        io.write_coeff_path(tmp / "coeff.csv", t_path)
    oracle_table(tmp / "cov_old.csv", ["t", "i", "j", "value"],
                 ((t + 1, a + 1, b + 1, fmt(sigmas[t, a, b]))
                  for t in range(n) for a in range(p) for b in range(p)))
    oracle_table(tmp / "coeff_old.csv", ["t", "j", "k", "phi"],
                 ((t + 1, a + 1, b + 1, fmt(-t_path[t, a, b]))
                  for t in range(n) for a, b in zip(j, k)))
    for name in ("cov", "coeff"):
        assert (tmp / f"{name}.csv").read_bytes() == (tmp / f"{name}_old.csv").read_bytes()


def test_block_keeps_the_template_only_while_its_columns_fit_it(tmp_path):
    # Columns 0 and 1 are equal and column 2 constant in the first block
    # only; the second block breaks both, the third restores them.
    values = np.array([[1.5, 1.5, 7.0], [2.5, 2.5, 7.0],
                       [3.5, 0.5, 7.0], [4.5, 4.5, 8.0],
                       [5.5, 5.5, 7.0], [6.5, 6.5, 7.0]])
    built = []
    step_template = io._step_template

    def recording(block, pairs):
        built.append(len(block))
        return step_template(block, pairs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(io, "_step_template", recording)
        io._write_long(tmp_path / "new.csv", ["t", "a", "b", "v"],
                       [(1, 1), (1, 2), (2, 2)], (values[i:i + 2] for i in (0, 2, 4)))
    assert built == [2, 2]  # the third block keeps the second's template
    oracle_table(tmp_path / "old.csv", ["t", "a", "b", "v"],
                 ((t + 1, a, b, fmt(values[t, m]))
                  for t in range(6) for m, (a, b) in enumerate([(1, 1), (1, 2), (2, 2)])))
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_long_writer_formats_each_distinct_column_once():
    values = np.array([[1.5, 2.5, 1.5, -0.0, 0.0, 2.5, 0.0],
                       [1.5, 3.5, 1.5, -0.0, 0.0, 4.5, -0.0],
                       [1.5, 4.5, 1.5000000000000002, -0.0, 0.0, 3.5, 0.0]])
    constant, source = io._column_sources(values)
    assert constant.tolist() == [True, False, False, True, True, False, False]
    assert source == [0, 1, 2, 3, 4, 5, 6]
    values[2, 2] = 1.5
    values[1:, 5] = values[1:, 1]
    assert io._column_sources(values)[1] == [0, 1, 0, 3, 4, 1, 6]


def test_cov_path_write_streams_in_chunks(tmp_path):
    """A 2048 x 6 x 6 path is about 3 MB of text; writing it must not
    build the whole file in memory."""
    rng = np.random.default_rng(3)
    cov = CovariancePath(rng.standard_normal((2048, 6, 6)))
    tracemalloc.start()
    try:
        io.write_cov_path(tmp_path / "cov.csv", cov)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (tmp_path / "cov.csv").stat().st_size > 2_000_000
    assert peak < 2_000_000


def test_panel_read_holds_no_list_of_lines(tmp_path):
    """A 2048 x 6 panel is parsed from the open file: the read's peak stays
    below twice the array it returns (a list of its lines is about 5x)."""
    values = np.random.default_rng(5).standard_normal((2048, 6))
    io.write_panel(tmp_path / "panel.csv", TimeSeriesPanel(values))
    tracemalloc.start()
    try:
        back = io.read_panel(tmp_path / "panel.csv")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(back.values, values)
    assert peak < 2 * values.nbytes


def test_header_only_panel_is_rejected(tmp_path):
    path = tmp_path / "header.csv"
    path.write_text("a,b\n")
    with pytest.raises(PanelFormatError, match="no data rows"):
        io.read_panel(path)
