"""CSV readers and writers for panels, matrix paths, and reports.

Floats are serialized with 17 significant digits so a write/read
round-trip reproduces values exactly.  Matrix paths use a long format
``t,i,j,value`` with 1-based indices; panels are wide (one header row of
labels, one row per time step).  Both readers parse a file's body with
one ``np.loadtxt`` call on the open file, which gives a number the bits
``float()`` gives it and holds no list of the file's lines; blank lines
are skipped, and an error names the line at fault (the file is read
again, line by line, to find it).

Everything that grows with the number of time steps is written without
holding a whole file in memory: the wide files (panels, per-step loss
reports) a row at a time by ``np.savetxt``, the long-format paths
(covariance, correlation, coefficients) a block of time steps at a time
(``_BLOCK_STEPS``), each block in chunks, each step's lines one
``%``-template filled from that step's values, so no per-entry Python
call is made.  A path is taken a block at a time too: ``write_cov_path``
takes anything with ``block(start, stop)``, and a fit's ``FactoredPath``
builds each block from the fit's factors, so ``scgarch fit`` holds T,
the variance paths and one block of steps, never a whole covariance or
correlation path.  ``"%.17g" % v`` and ``fmt(v)`` use the
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
import warnings
from operator import itemgetter

import numpy as np

from .exceptions import PanelFormatError
from .mcd import _BLOCK_STEPS
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
    compared in full only when their first entries and bit sums agree:
    each column with the first column of its key in one comparison, and a
    column that differs from it with the other earlier columns of its key.
    """
    bits = values.view(np.int64)
    constant = (bits == bits[0]).all(axis=0)
    keys = list(zip(bits[0].tolist(), bits.sum(axis=0).tolist()))
    first = {}
    for m, key in enumerate(keys):
        first.setdefault(key, m)
    source = [first[key] for key in keys]
    later = [m for m, s in enumerate(source) if s != m]
    if later:
        equal = (bits[:, [source[m] for m in later]] == bits[:, later]).all(axis=0)
        for m, same in zip(later, equal.tolist()):
            if not same:
                source[m] = next((e for e in range(source[m] + 1, m)
                                  if source[e] == e and keys[e] == keys[m]
                                  and (bits[:, e] == bits[:, m]).all()), m)
    return constant, source


def _write_long(path, header, pairs, blocks):
    """Long format: a ``t,a,b,value`` line per step t and index pair (a, b).

    ``blocks`` yields the path's steps in order, a block at a time, each
    a (steps, len(pairs)) array whose column m holds pair m's values.  A
    constant column's text is part of the step template, and each distinct
    varying column is formatted once per chunk (``%.17g``), its text
    filling every line that reads it (``%s``).  The template of one block
    serves the next while that block's columns keep its constants and bit
    equalities, as a symmetric matrix's mirror entries and a correlation's
    unit diagonal do; otherwise the block gets its own.
    """
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        pickers, done, holds = {}, 0, None
        for values in blocks:
            values = np.ascontiguousarray(values, dtype=float)
            if holds is None or not holds(values.view(np.int64)):
                step, distinct, slots, holds = _step_template(values, pairs)
            for start in range(0, len(values), _CHUNK_STEPS):
                rows = min(_CHUNK_STEPS, len(values) - start)
                key = (len(distinct), slots, rows)
                if key not in pickers:
                    pickers[key] = _picker(*key)
                fh.write(_chunk_text(values[start:start + rows, distinct], done + start + 1,
                                     step, pickers[key]))
            done += len(values)


def _chunk_text(columns: np.ndarray, first: int, step: str, picker) -> str:
    """The lines of a chunk of steps, numbered from ``first``, whose
    distinct varying columns are ``columns``: one ``%.17g`` formatting of
    all their values, and one template of the chunk's steps filled by
    ``picker`` from those texts.  Its temporaries go when it returns."""
    values = columns.ravel().tolist()
    texts = ("%.17g," * len(values) % tuple(values)).split(",")[:-1]
    template = "".join([step.replace("\0", f"{t},")
                        for t in range(first, first + len(columns))])
    return template % picker(texts)


def _step_template(values: np.ndarray, pairs):
    """The lines of one step of the block ``values``, with "\\0" for the
    step's "t," prefix and ``%s`` for each varying value; the distinct
    varying columns, whose texts fill them; the slot among those columns
    of each ``%s``; and ``holds(bits)``, whether the columns of another
    block, given as bits, keep the constants and equalities used here."""
    constant, source = _column_sources(values)
    distinct = sorted({source[m] for m in range(len(pairs)) if not constant[m]})
    position = {column: k for k, column in enumerate(distinct)}
    lines, slots = [], []
    for m, (a, b) in enumerate(pairs):
        if constant[m]:
            lines.append(f"\0{a},{b},{fmt(values[0, m])}\r\n")
        else:
            lines.append(f"\0{a},{b},%s\r\n")
            slots.append(position[source[m]])
    fixed = np.flatnonzero(constant)
    fixed_bits = values.view(np.int64)[0, fixed]
    copies = np.array([m for m in range(len(pairs)) if source[m] != m], dtype=np.intp)
    copied = np.array(source, dtype=np.intp)[copies]

    def holds(bits):
        return bool((bits[:, copies] == bits[:, copied]).all()
                    and (bits[:, fixed] == fixed_bits).all())

    return "".join(lines), distinct, tuple(slots), holds


def _picker(width, slots, rows):
    """The template's arguments, row-major, from the texts of a chunk of
    ``rows`` steps of ``width`` distinct columns."""
    idx = [r * width + k for r in range(rows) for k in slots]
    if len(idx) > 1:
        return itemgetter(*idx)
    return lambda texts: tuple(texts[i] for i in idx)


def _blocks(n: int, block):
    """``block(start, stop)`` over steps 0..n, ``_BLOCK_STEPS`` at a time:
    the blocks ``mcd_reconstruct`` rebuilds at once, four chunks each."""
    for start in range(0, n, _BLOCK_STEPS):
        yield block(start, min(start + _BLOCK_STEPS, n))


def write_columns(path, header, values):
    """Wide format: one line per row of the 2-D array ``values``."""
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        np.savetxt(fh, np.asarray(values, dtype=float), fmt="%.17g", delimiter=",",
                   newline="\r\n")


def write_panel(path, panel: TimeSeriesPanel):
    write_columns(path, panel.labels, panel.values)


# How the readers parse a body: one "," cell per value, quotes allowed.
_CELLS = {"delimiter": ",", "comments": None, "quotechar": '"'}


def _read_csv(path, dtype, ndmin, header=None):
    """The header cells and the body parsed as ``dtype`` by one
    ``np.loadtxt`` call on the open file; blank lines are skipped.  A
    ``header`` given must match."""
    with open(path, newline="") as fh:
        cells = next(csv.reader(fh), None)
        if cells is None:
            raise PanelFormatError(f"{path}: file is empty")
        cells = [c.strip() for c in cells]
        if header is not None and cells != header:
            raise PanelFormatError(f"{path}: expected header {','.join(header)}")
        try:
            with warnings.catch_warnings():
                # A body of blank lines is reported below.
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                body = np.loadtxt(fh, dtype=dtype, ndmin=ndmin, **_CELLS)
        except ValueError as exc:
            raise _parse_error(path, len(cells), dtype, exc) from None
    if not len(body):
        raise PanelFormatError(f"{path}: no data rows")
    return cells, body


def _parse_error(path, width: int, dtype, exc: ValueError) -> PanelFormatError:
    """The error for a body that did not parse: the file is read again and
    each line checked on its own, its cell count and then its values, and
    the error names the first that fails (numpy's "at row N" counts rows,
    not lines)."""
    for lineno, line in _body_lines(path):
        cells = len(next(csv.reader([line])))
        if cells != width:
            return PanelFormatError(f"{path}, line {lineno}: expected {width} cells, "
                                    f"got {cells}")
        try:
            np.loadtxt([line], dtype=dtype, **_CELLS)
        except ValueError as bad:
            return PanelFormatError(f"{path}, line {lineno}: {bad}")
    return PanelFormatError(f"{path}: {exc}")


def _body_lines(path):
    """(line number, line) of each line after the header that is not
    blank, read again to name a line in an error."""
    with open(path, newline="") as fh:
        next(csv.reader(fh))
        return [(k, line) for k, line in enumerate(fh, start=2) if line.strip("\r\n")]


def read_panel(path) -> TimeSeriesPanel:
    labels, values = _read_csv(path, float, ndmin=2)
    if values.shape[1] != len(labels):
        raise PanelFormatError(f"{path}, line {_body_lines(path)[0][0]}: expected "
                               f"{len(labels)} cells, got {values.shape[1]}")
    try:
        return TimeSeriesPanel(values, labels)
    except Exception as exc:
        raise PanelFormatError(f"{path}: {exc}")


def write_cov_path(path, cov):
    """Long format: t,i,j,value with 1-based indices, all p*p entries.

    ``cov`` has ``n``, ``p`` and ``block(start, stop)``, which gives the
    steps ``start`` to ``stop`` as a (steps, p, p) array: a
    ``CovariancePath`` gives views of its array, a fit's ``FactoredPath``
    builds each block from the fit's factors.
    """
    p = cov.p
    pairs = [(i + 1, j + 1) for i in range(p) for j in range(p)]
    _write_long(path, ["t", "i", "j", "value"], pairs,
                (b.reshape(len(b), p * p) for b in _blocks(cov.n, cov.block)))


# A matrix path line.  As ``int()`` does, an index field rejects "1.0".
_PATH_LINE = np.dtype([("t", "i8"), ("i", "i8"), ("j", "i8"), ("value", "f8")])


def read_cov_path(path) -> CovariancePath:
    """Read a path written by ``write_cov_path``: every (t, i, j) entry of
    an n x p x p path exactly once, values NaN and infinities included."""
    _, body = _read_csv(path, _PATH_LINE, ndmin=1, header=list(_PATH_LINE.names))
    keys = np.column_stack([body["t"], body["i"], body["j"]])
    idx = keys - 1
    n, p = int(idx[:, 0].max()) + 1, int(idx[:, 1].max()) + 1

    def line_of(row):
        return _body_lines(path)[row][0]

    bad = np.flatnonzero((idx < 0).any(axis=1) | (idx[:, 2] >= p))
    if bad.size:
        k = bad[0]
        raise PanelFormatError(
            f"{path}, line {line_of(k)}: index {tuple(keys[k].tolist())} out of range")
    flat = np.ravel_multi_index(idx.T, (n, p, p))
    order = np.argsort(flat, kind="stable")
    repeats = order[1:][flat[order[1:]] == flat[order[:-1]]]
    if repeats.size:
        k = repeats.min()
        raise PanelFormatError(
            f"{path}, line {line_of(k)}: duplicate entry {tuple(keys[k].tolist())}")
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
    _write_long(path, ["t", "j", "k", "phi"], list(zip(j + 1, k + 1)),
                _blocks(len(t_path), lambda start, stop: -t_path[start:stop, j, k]))


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
