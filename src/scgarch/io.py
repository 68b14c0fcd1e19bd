"""CSV readers and writers for panels, matrix paths, and reports.

Floats are serialized with 17 significant digits so a write/read
round-trip reproduces values exactly.  Matrix paths use a long format
``t,i,j,value`` with 1-based indices; panels are wide (one header row of
labels, one row per time step).  Both readers parse a file's body with
one ``np.loadtxt`` call, which gives a number the bits ``float()`` gives
it; blank lines are skipped and an error names the line at fault.

Everything that grows with the number of time steps is written without
holding a whole file in memory: the wide files (panels, per-step loss
reports) a row at a time by ``np.savetxt``, the long-format paths
(covariance, correlation, coefficients) a chunk of time steps at a time,
each step's lines one ``%``-template filled from that step's values, so
no per-entry Python call is made.  ``"%.17g" % v`` and ``fmt(v)`` use the
same float-to-string routine and ``csv.writer`` never quotes a number,
so the bytes are those ``csv.writer`` writes, ``\r\n`` line ends included.
The long-format writers format each distinct column once: a column that
holds one value at every step (a correlation's unit diagonal, a static
coefficient) is part of the template, and every other line takes the
text of the first column bitwise equal to its own (a symmetric matrix's
mirror entry).  Small tables go through ``write_table``.
"""

from __future__ import annotations

import csv
from operator import itemgetter

import numpy as np

from .exceptions import PanelFormatError
from .model import CovariancePath, TimeSeriesPanel


def fmt(x) -> str:
    return format(float(x), ".17g")


# Time steps formatted per write.  A p = 6 chunk is about 70 KB of text;
# larger chunks are no faster and raise the peak memory of a write.
_CHUNK_STEPS = 64


def write_table(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _column_sources(values: np.ndarray):
    """Classify the columns of ``values`` (n >= 1 rows) by bit pattern.

    Returns ``constant``, whether each column holds one value at every
    step, and ``source``, the first column bitwise equal to each column.
    Bits keep -0.0 apart from 0.0 and NaN payloads apart.  Two columns are
    compared in full only when their first entries and bit sums agree, and
    no column is copied.
    """
    bits = values.view(np.int64)
    constant = (bits == bits[0]).all(axis=0)
    source = list(range(bits.shape[1]))
    seen = {}
    for m, key in enumerate(zip(bits[0].tolist(), bits.sum(axis=0).tolist())):
        for earlier in seen.setdefault(key, []):
            if np.array_equal(bits[:, earlier], bits[:, m]):
                source[m] = earlier
                break
        else:
            seen[key].append(m)
    return constant, source


def _write_long(path, header, pairs, values: np.ndarray):
    """Long format: a ``t,a,b,value`` line per step t and index pair (a, b).

    ``values`` is (n, len(pairs)), column m holding pair m's values.  A
    constant column's text is part of the step template.  Each distinct
    varying column is formatted once per chunk (``%.17g``), and its text
    fills every line that reads it (``%s``).
    """
    values = np.ascontiguousarray(values, dtype=float)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        if not len(values):
            return
        constant, source = _column_sources(values)
        distinct = sorted({source[m] for m in range(len(pairs)) if not constant[m]})
        # "\0" stands for the step's "t," prefix until a chunk fills it in.
        lines, slots = [], []
        for m, (a, b) in enumerate(pairs):
            if constant[m]:
                lines.append(f"\0{a},{b},{fmt(values[0, m])}\r\n")
            else:
                lines.append(f"\0{a},{b},%s\r\n")
                slots.append(distinct.index(source[m]))
        step = "".join(lines)

        def picker(rows):
            """The template's arguments from a chunk's texts, row-major."""
            idx = [r * len(distinct) + k for r in range(rows) for k in slots]
            if len(idx) > 1:
                return itemgetter(*idx)
            return lambda texts: tuple(texts[i] for i in idx)

        pickers = {}
        for start in range(0, len(values), _CHUNK_STEPS):
            block = values[start:start + _CHUNK_STEPS, distinct].ravel().tolist()
            rows = min(_CHUNK_STEPS, len(values) - start)
            if rows not in pickers:
                pickers[rows] = picker(rows)
            texts = ("%.17g," * len(block) % tuple(block)).split(",")[:-1]
            template = "".join([step.replace("\0", f"{t},")
                                for t in range(start + 1, start + rows + 1)])
            fh.write(template % pickers[rows](texts))


def write_columns(path, header, values):
    """Wide format: one line per row of the 2-D array ``values``."""
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        np.savetxt(fh, np.asarray(values, dtype=float), fmt="%.17g", delimiter=",",
                   newline="\r\n")


def write_panel(path, panel: TimeSeriesPanel):
    write_columns(path, panel.labels, panel.values)


def _read_csv(path, dtype, header=None):
    """The header cells, the body parsed as ``dtype`` by one ``np.loadtxt``
    call, and each body row's line number; blank lines are skipped.

    A ``header`` given must match.  If the body does not parse, each line
    is checked on its own, its cell count and then its values, and the
    error names the first that fails: numpy's "at row N" counts rows, not
    lines.
    """
    with open(path, newline="") as fh:
        cells = next(csv.reader(fh), None)
        numbered = [(k, line) for k, line in enumerate(fh, start=2) if line.strip("\r\n")]
    if cells is None:
        raise PanelFormatError(f"{path}: file is empty")
    cells = [c.strip() for c in cells]
    if header is not None and cells != header:
        raise PanelFormatError(f"{path}: expected header {','.join(header)}")
    if not numbered:
        raise PanelFormatError(f"{path}: no data rows")

    def parse(lines):
        return np.loadtxt(lines, delimiter=",", comments=None, quotechar='"',
                          dtype=dtype, ndmin=1)

    linenos, lines = zip(*numbered)
    try:
        return cells, parse(lines), linenos
    except ValueError as exc:
        for lineno, line in numbered:
            width = len(next(csv.reader([line])))
            if width != len(cells):
                raise PanelFormatError(f"{path}, line {lineno}: expected "
                                       f"{len(cells)} cells, got {width}") from None
            try:
                parse([line])
            except ValueError as bad:
                raise PanelFormatError(f"{path}, line {lineno}: {bad}") from None
        raise PanelFormatError(f"{path}: {exc}") from None


def read_panel(path) -> TimeSeriesPanel:
    labels, body, linenos = _read_csv(path, float)
    values = body.reshape(len(linenos), -1)
    if values.shape[1] != len(labels):
        raise PanelFormatError(f"{path}, line {linenos[0]}: expected "
                               f"{len(labels)} cells, got {values.shape[1]}")
    try:
        return TimeSeriesPanel(values, labels)
    except Exception as exc:
        raise PanelFormatError(f"{path}: {exc}")


def write_cov_path(path, cov: CovariancePath):
    """Long format: t,i,j,value with 1-based indices, all p*p entries."""
    n, p, _ = cov.sigmas.shape
    pairs = [(i + 1, j + 1) for i in range(p) for j in range(p)]
    _write_long(path, ["t", "i", "j", "value"], pairs, cov.sigmas.reshape(n, p * p))


# A matrix path line.  As ``int()`` does, an index field rejects "1.0".
_PATH_LINE = np.dtype([("t", "i8"), ("i", "i8"), ("j", "i8"), ("value", "f8")])


def read_cov_path(path) -> CovariancePath:
    """Read a path written by ``write_cov_path``: every (t, i, j) entry of
    an n x p x p path exactly once, values NaN and infinities included."""
    _, body, linenos = _read_csv(path, _PATH_LINE, header=list(_PATH_LINE.names))
    keys = np.column_stack([body["t"], body["i"], body["j"]])
    idx = keys - 1
    n, p = int(idx[:, 0].max()) + 1, int(idx[:, 1].max()) + 1
    bad = np.flatnonzero((idx < 0).any(axis=1) | (idx[:, 2] >= p))
    if bad.size:
        k = bad[0]
        raise PanelFormatError(
            f"{path}, line {linenos[k]}: index {tuple(keys[k].tolist())} out of range")
    flat = np.ravel_multi_index(idx.T, (n, p, p))
    order = np.argsort(flat, kind="stable")
    repeats = order[1:][flat[order[1:]] == flat[order[:-1]]]
    if repeats.size:
        k = repeats.min()
        raise PanelFormatError(
            f"{path}, line {linenos[k]}: duplicate entry {tuple(keys[k].tolist())}")
    if flat.size != n * p * p:
        raise PanelFormatError(f"{path}: missing entries in the {n}x{p}x{p} path")
    sigmas = np.empty(n * p * p)
    sigmas[flat] = body["value"]
    return CovariancePath(sigmas.reshape(n, p, p))


def write_coeff_path(path, t_path: np.ndarray):
    """Filtered regression coefficients: t,j,k,phi (1-based, k < j).

    ``phi`` is the coefficient itself, the negated strict-lower entry of
    the unit-lower-triangular factor.
    """
    j, k = np.tril_indices(t_path.shape[1], -1)
    _write_long(path, ["t", "j", "k", "phi"], list(zip(j + 1, k + 1)), -t_path[:, j, k])


def write_garch_params(path, fits, labels):
    """One row per series.  ``boundary`` names the face the fit lies on
    (see ``GarchFit``); at alpha = 0 the beta column is not identified."""
    rows = [
        (label, fmt(f.params.omega), fmt(f.params.alpha[0]), fmt(f.params.beta[0]),
         fmt(f.loglik), str(bool(f.converged)).lower(), f.boundary)
        for label, f in zip(labels, fits)
    ]
    write_table(path, ["series", "omega", "alpha", "beta", "loglik", "converged",
                       "boundary"], rows)


def write_eval_report(path, report, comment: str):
    """A ``# comment`` line, then per-step losses plus a final averages
    row labelled ``mean``."""
    with open(path, "w", newline="") as fh:
        fh.write(f"# {comment}\n")
        writer = csv.writer(fh)
        writer.writerow(["t", "mae", "mse"])
        steps = np.arange(1, len(report.mae_path) + 1)
        np.savetxt(fh, np.column_stack([steps, report.mae_path, report.mse_path]),
                   fmt=("%d", "%.17g", "%.17g"), delimiter=",", newline="\r\n")
        writer.writerow(["mean", fmt(report.mae), fmt(report.mse)])


def write_block_table(path, selection):
    rows = [
        (r.q,
         fmt(r.mae), fmt(r.mse),
         "" if r.mae_diff is None else fmt(r.mae_diff),
         "" if r.mse_diff is None else fmt(r.mse_diff),
         str(r.q == selection.q_star).lower())
        for r in selection.table
    ]
    write_table(path, ["q", "mae", "mse", "mae_diff", "mse_diff", "selected"], rows)


def write_benchmark_table(path, result):
    rows = [
        (row.model, row.scale, fmt(row.mae), fmt(row.mse), row.replications)
        for row in result.rows
    ]
    write_table(path, ["model", "scale", "mae", "mse", "replications"], rows)


def write_benchmark_failures(path, result):
    write_table(path, ["replication", "model", "error"],
                [(rep, model, msg) for rep, model, msg in result.failures])


def write_config_echo(path, mapping: dict):
    """Full effective configuration, one sorted key=value per line."""
    with open(path, "w") as fh:
        for key in sorted(mapping):
            value = mapping[key]
            if isinstance(value, float):
                value = fmt(value)
            elif isinstance(value, (list, tuple)):
                value = " ".join(fmt(v) if isinstance(v, float) else str(v)
                                 for v in value)
            fh.write(f"{key}={value}\n")
