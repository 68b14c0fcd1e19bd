"""Checks on the files one ``scgarch fit`` op writes, and their quality
against the generator's truth.

The checks read only the output files, never the program's objects, so
they hold for any implementation that keeps the CLI's output format.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

BIC_RTOL = 1e-9
SYMMETRY_RTOL = 1e-12


class OutputError(Exception):
    """An output file is missing, malformed, or fails a check."""


def read_matrix_path(path: Path, n: int, p: int) -> np.ndarray:
    """Read a long-format ``t,i,j,value`` file into an (n, p, p) array,
    checking it has exactly n*p*p rows in t, i, j order."""
    try:
        table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except (OSError, ValueError) as exc:
        raise OutputError(f"{path.name}: {exc}") from exc
    if table.shape != (n * p * p, 4):
        raise OutputError(f"{path.name}: {table.shape[0]} rows, expected {n * p * p}")
    t, i, j = np.meshgrid(np.arange(1, n + 1), np.arange(1, p + 1),
                          np.arange(1, p + 1), indexing="ij")
    expected = np.column_stack([t.ravel(), i.ravel(), j.ravel()])
    if not np.array_equal(table[:, :3], expected):
        raise OutputError(f"{path.name}: indices are not t,i,j in row-major order")
    return table[:, 3].reshape(n, p, p)


def read_key_values(path: Path) -> dict[str, str]:
    try:
        lines = path.read_text().splitlines()
    except OSError as exc:
        raise OutputError(f"{path.name}: {exc}") from exc
    return dict(line.split("=", 1) for line in lines if "=" in line)


def check_fit_outputs(out: Path, n: int, p: int) -> tuple[np.ndarray, float]:
    """Run every output check; return the covariance path and total_loglik.

    Raises OutputError naming the first check that fails.
    """
    sigmas = read_matrix_path(out / "cov_path.csv", n, p)
    scale = np.max(np.abs(sigmas), axis=(1, 2), keepdims=True)
    if np.any(np.abs(sigmas - sigmas.transpose(0, 2, 1)) > SYMMETRY_RTOL * scale):
        raise OutputError("cov_path.csv: a covariance matrix is not symmetric")
    try:
        np.linalg.cholesky(sigmas)
    except np.linalg.LinAlgError as exc:
        raise OutputError(f"cov_path.csv: Cholesky failed: {exc}") from exc

    summary = read_key_values(out / "summary.txt")
    try:
        total_loglik = float(summary["total_loglik"])
        bic = float(summary["bic"])
        n_s, p_s = int(summary["n"]), int(summary["p"])
    except (KeyError, ValueError) as exc:
        raise OutputError(f"summary.txt: {exc}") from exc
    if (n_s, p_s) != (n, p):
        raise OutputError(f"summary.txt: n={n_s}, p={p_s}, expected {n}, {p}")
    expected_bic = -2.0 * total_loglik + 3.0 * p * float(np.log(n))
    if not abs(bic - expected_bic) <= BIC_RTOL * abs(expected_bic):
        raise OutputError(f"summary.txt: bic={bic!r}, expected {expected_bic!r}")

    try:
        first = (out / "ordering.txt").read_text().splitlines()[0]
        ordering = sorted(int(tok) for tok in first.split())
    except (OSError, IndexError, ValueError) as exc:
        raise OutputError(f"ordering.txt: {exc}") from exc
    if ordering != list(range(1, p + 1)):
        raise OutputError(f"ordering.txt: {first!r} is not a permutation of 1..{p}")

    try:
        params = np.genfromtxt(out / "garch_params.csv", delimiter=",", names=True,
                               dtype=None, encoding="utf-8", ndmin=1)
        persistence = params["alpha"] + params["beta"]
    except (OSError, ValueError) as exc:
        raise OutputError(f"garch_params.csv: {exc}") from exc
    if persistence.shape != (p,) or not np.all(persistence < 1.0):
        raise OutputError(f"garch_params.csv: alpha+beta = {persistence}, need {p} rows < 1")
    return sigmas, total_loglik


def correlations(sigmas: np.ndarray) -> np.ndarray:
    sd = np.sqrt(np.diagonal(sigmas, axis1=1, axis2=2))
    return sigmas / (sd[:, :, None] * sd[:, None, :])


def gaussian_criterion(values: np.ndarray, sigmas: np.ndarray) -> float:
    """``sum_t log det S_t + y_t' inv(S_t) y_t``, the negated ``total_loglik``
    of the package's likelihood (no 1/2, no 2*pi) evaluated at ``sigmas``."""
    _, logdet = np.linalg.slogdet(sigmas)
    quad = np.einsum("ti,ti->t", values, np.linalg.solve(sigmas, values[..., None])[..., 0])
    return float(np.sum(logdet + quad))


def fit_quality(out: Path, sigmas: np.ndarray, total_loglik: float,
                values: np.ndarray, truth: np.ndarray) -> dict[str, float]:
    """Accuracy of one fit against the generator's true covariance path."""
    n, p = values.shape
    corr = read_matrix_path(out / "corr_path.csv", n, p)
    return {
        "cov_mse": float(np.mean((sigmas - truth) ** 2)),
        "corr_mse": float(np.mean((corr - correlations(truth)) ** 2)),
        "loglik_per_obs": total_loglik / (n * p),
        "nll_rel_truth": -total_loglik / gaussian_criterion(values, truth),
    }
