"""CSV readers and writers for panels, matrix paths, and reports.

Floats are serialized with 17 significant digits so a write/read
round-trip reproduces values exactly.  Matrix paths use a long format
``t,i,j,value`` with 1-based indices; panels are wide (one header row of
labels, one row per time step).
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from .exceptions import PanelFormatError
from .model import CovariancePath, TimeSeriesPanel


def fmt(x) -> str:
    return format(float(x), ".17g")


def write_table(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_panel(path, panel: TimeSeriesPanel):
    write_table(path, panel.labels,
                ([fmt(v) for v in row] for row in panel.values))


def read_panel(path) -> TimeSeriesPanel:
    path = Path(path)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            labels = next(reader)
        except StopIteration:
            raise PanelFormatError(f"{path}: file is empty")
        labels = [l.strip() for l in labels]
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(labels):
                raise PanelFormatError(
                    f"{path}, line {lineno}: expected {len(labels)} cells, "
                    f"got {len(row)}"
                )
            try:
                rows.append([float(cell) for cell in row])
            except ValueError as exc:
                raise PanelFormatError(f"{path}, line {lineno}: {exc}")
    if not rows:
        raise PanelFormatError(f"{path}: no data rows")
    try:
        return TimeSeriesPanel(np.asarray(rows), labels)
    except Exception as exc:
        raise PanelFormatError(f"{path}: {exc}")


def write_cov_path(path, cov: CovariancePath):
    """Long format: t,i,j,value with 1-based indices, all p*p entries."""
    def rows():
        for t in range(cov.n):
            for i in range(cov.p):
                for j in range(cov.p):
                    yield (t + 1, i + 1, j + 1, fmt(cov.sigmas[t, i, j]))
    write_table(path, ["t", "i", "j", "value"], rows())


def read_cov_path(path) -> CovariancePath:
    path = Path(path)
    entries = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["t", "i", "j", "value"]:
            raise PanelFormatError(f"{path}: expected header t,i,j,value")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                t, i, j = int(row[0]), int(row[1]), int(row[2])
                entries.append((t, i, j, float(row[3])))
            except (ValueError, IndexError) as exc:
                raise PanelFormatError(f"{path}, line {lineno}: {exc}")
    if not entries:
        raise PanelFormatError(f"{path}: no data rows")
    n = max(e[0] for e in entries)
    p = max(e[1] for e in entries)
    sigmas = np.full((n, p, p), np.nan)
    for t, i, j, v in entries:
        if not (1 <= t <= n and 1 <= i <= p and 1 <= j <= p):
            raise PanelFormatError(f"{path}: index ({t},{i},{j}) out of range")
        sigmas[t - 1, i - 1, j - 1] = v
    if np.any(np.isnan(sigmas)):
        raise PanelFormatError(f"{path}: missing entries in the {n}x{p}x{p} path")
    return CovariancePath(sigmas)


def write_coeff_path(path, t_path: np.ndarray):
    """Filtered regression coefficients: t,j,k,phi (1-based, k < j).

    ``phi`` is the coefficient itself, the negated strict-lower entry of
    the unit-lower-triangular factor.
    """
    n, p, _ = t_path.shape
    def rows():
        for t in range(n):
            for j in range(1, p):
                for k in range(j):
                    yield (t + 1, j + 1, k + 1, fmt(-t_path[t, j, k]))
    write_table(path, ["t", "j", "k", "phi"], rows())


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


def write_eval_report(path, report, comment: str | None = None):
    """Per-step losses plus a final averages row labelled ``mean``."""
    with open(path, "w", newline="") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        writer = csv.writer(fh)
        writer.writerow(["t", "mae", "mse"])
        for t, (mae, mse) in enumerate(zip(report.mae_path, report.mse_path), 1):
            writer.writerow([t, fmt(mae), fmt(mse)])
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
