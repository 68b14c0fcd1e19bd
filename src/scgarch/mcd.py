"""Modified Cholesky decomposition of a covariance matrix.

A symmetric positive definite matrix ``sigma`` is reparameterized as
``sigma = inv(T) @ diag(d) @ inv(T).T`` where ``T`` is unit lower
triangular and ``d`` is strictly positive.  Row ``j`` of ``T`` holds the
negated coefficients of the least-squares regression of variable ``j``
on variables ``0..j-1``, and ``d[j]`` is the corresponding prediction
error variance.  Every (T, d) pair with positive ``d`` maps back to a
positive definite matrix, which is what makes the parameterization
useful for unconstrained covariance modelling.
"""

from __future__ import annotations

import numpy as np

from .exceptions import DimensionMismatch, NotPositiveDefinite, NotUnitLowerTriangular

# Relative floor for the smallest eigenvalue in the PD test: scale-free,
# so well-conditioned matrices with large entries are not rejected.
PD_RTOL = 1e-12


def as_sym_matrix(sigma) -> np.ndarray:
    """Validate and return a square symmetric float matrix."""
    a = np.asarray(sigma, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    if not np.array_equal(a, a.T):
        raise DimensionMismatch("matrix is not symmetric")
    return a


def is_positive_definite(sigma: np.ndarray) -> bool:
    """Scale-relative PD test: smallest eigenvalue > PD_RTOL * max diagonal."""
    lam_min = float(np.linalg.eigvalsh(sigma)[0])
    scale = float(np.max(np.diag(sigma))) if sigma.shape[0] else 0.0
    return lam_min > PD_RTOL * max(scale, 0.0)


def mcd_decompose(sigma) -> tuple[np.ndarray, np.ndarray]:
    """Decompose a PD matrix into regression coefficients and variances.

    Parameters
    ----------
    sigma : (p, p) array_like
        Symmetric positive definite matrix.

    Returns
    -------
    t : (p, p) ndarray
        Unit lower triangular; ``t[j, k] == -phi_jk`` for ``k < j`` where
        ``phi_j`` solves the normal equations
        ``sigma[:j, :j] @ phi_j = sigma[:j, j]``.
    d : (p,) ndarray
        Strictly positive prediction error variances, so that
        ``t @ sigma @ t.T == diag(d)``.

    Raises
    ------
    NotPositiveDefinite
        If ``sigma`` fails the scale-relative eigenvalue test.
    """
    a = as_sym_matrix(sigma)
    if not is_positive_definite(a):
        raise NotPositiveDefinite("matrix failed the positive definiteness test")
    p = a.shape[0]
    t = np.eye(p)
    d = np.empty(p)
    d[0] = a[0, 0]
    # Sequential solves of the leading blocks keep each row of t exactly
    # the regression of variable j on its predecessors.
    for j in range(1, p):
        phi = np.linalg.solve(a[:j, :j], a[:j, j])
        t[j, :j] = -phi
        d[j] = a[j, j] - a[j, :j] @ phi
    return t, d


# Matrices rebuilt together, and the steps of a path a writer asks for at
# once.  A fixed count of steps, not of bytes: a block takes about p^2
# numpy calls, each over a row of entries of its matrices, so a block of
# fixed bytes, 1/p^2 as many steps, would make that overhead grow with p.
# The scratch arrays then fill 72 KiB each at p = 6 and 800 KiB at p = 20.
_BLOCK_STEPS = 256


def check_unit_lower_triangular(t: np.ndarray) -> None:
    """Raise NotUnitLowerTriangular, naming the first entry in row order
    that fails in any matrix, unless every matrix of the (..., p, p) ``t``
    has a unit diagonal and a zero strict upper triangle; NaN fails.  The
    matrices are compared ``_BLOCK_STEPS`` at a time."""
    p = t.shape[-1]
    eye, upper = np.eye(p), ~np.tri(p, k=-1, dtype=bool)
    flat = t.reshape(-1, p, p)
    bad = np.zeros((p, p), dtype=bool)
    for start in range(0, len(flat), _BLOCK_STEPS):
        bad |= (np.not_equal(flat[start:start + _BLOCK_STEPS], eye) & upper).any(axis=0)
    if bad.any():
        k, j = divmod(int(np.argmax(bad)), p)
        raise NotUnitLowerTriangular(f"entry ({k + 1}, {j + 1}) of the factor is "
                                     "not that of a unit lower triangular matrix")


def mcd_reconstruct(t, d) -> np.ndarray:
    """Rebuild covariance matrices from their decompositions.

    ``t`` is (..., p, p) and ``d`` is (..., p), with any leading batch
    axes (a path of n steps is (n, p, p) and (n, p)); ``t`` may be a
    read-only broadcast view, which is read without a copy.  Returns
    ``inv(t) @ diag(d) @ inv(t).T`` per matrix, which is symmetric
    positive definite for any unit lower triangular ``t`` and positive
    ``d``.

    No inverse is formed: with phi_k = -t[k, :k], the regression of
    variable k on the variables before it, row k of the result is
    ``phi_k @ sigma[:k, :k]`` and its diagonal entry is that row times
    phi_k plus d[k].  The rows are built in turn, each sum taken term by
    term in index order, and each row is written into both triangles, so
    the result is bitwise symmetric.  The matrices are rebuilt
    ``_BLOCK_STEPS`` at a time in a scratch array that holds each entry
    of a block in one contiguous run, so every operation covers a row of
    entries across the block, and only the block's result is copied out.
    A matrix's result depends on its own ``t`` and ``d`` alone, so a path
    rebuilt a few steps at a time has the bits of the path rebuilt at
    once.  Only the strict lower triangle of ``t`` enters the sums, so
    ``t`` is checked first: one that is not unit lower triangular raises
    NotUnitLowerTriangular.
    """
    t = np.asarray(t, dtype=float)
    d = np.asarray(d, dtype=float)
    if t.ndim < 2 or t.shape[-2] != t.shape[-1]:
        raise DimensionMismatch(f"expected square matrices, got shape {t.shape}")
    if d.shape != t.shape[:-1]:
        raise DimensionMismatch(
            f"variances of shape {d.shape} do not match matrices {t.shape}"
        )
    check_unit_lower_triangular(t)
    p = t.shape[-1]
    sigma = np.empty(t.shape)
    flat_t, flat_d = t.reshape(-1, p, p), d.reshape(-1, p)
    flat_sigma = sigma.reshape(-1, p, p)
    # s[k, j] holds entry (k, j) of each matrix of a block; prod[i, j] the
    # terms t[k, i] * s[i, j] of row k's sums.
    s = np.empty((p, p, min(_BLOCK_STEPS, len(flat_t))))
    prod = np.empty_like(s)
    for start in range(0, len(flat_t), _BLOCK_STEPS):
        tb, db = flat_t[start:start + _BLOCK_STEPS], flat_d[start:start + _BLOCK_STEPS]
        b = len(tb)
        for k in range(p):
            tk = tb[:, k, :k].T  # (k, b): t[k, i] of each matrix
            # sigma[k, :k] = phi_k @ sigma[:k, :k] = -(t[k, :k] @ sigma[:k, :k])
            if k:
                row, terms = s[k, :k, :b], prod[:k, :k, :b]
                np.multiply(tk[:, None, :], s[:k, :k, :b], out=terms)
                row[...] = terms[0]
                for i in range(1, k):
                    row += terms[i]
                np.negative(row, out=row)
                s[:k, k, :b] = row
            # sigma[k, k] = sigma[k, :k] @ phi_k + d[k] = d[k] - sigma[k, :k] @ t[k, :k]
            var = s[k, k, :b]
            var[...] = 0.0
            if k:
                terms = np.multiply(s[k, :k, :b], tk, out=prod[0, :k, :b])
                for i in range(k):
                    var += terms[i]
            np.subtract(db[:, k], var, out=var)
        flat_sigma[start:start + b] = np.moveaxis(s[:, :, :b], 2, 0)
    return sigma
