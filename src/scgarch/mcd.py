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
    phi_k plus d[k].  The rows are built in turn, entry by entry, each
    entry vectorized over the batch and written into both triangles, so
    the result is bitwise symmetric.  Only the strict lower triangle of
    ``t`` enters the sums, so each row is checked before it is read: a
    ``t`` that is not unit lower triangular raises NotUnitLowerTriangular.
    """
    t = np.asarray(t, dtype=float)
    d = np.asarray(d, dtype=float)
    if t.ndim < 2 or t.shape[-2] != t.shape[-1]:
        raise DimensionMismatch(f"expected square matrices, got shape {t.shape}")
    if d.shape != t.shape[:-1]:
        raise DimensionMismatch(
            f"variances of shape {d.shape} do not match matrices {t.shape}"
        )
    sigma = np.empty(t.shape)
    # Every step below reads and writes one entry across the batch, with
    # products and checks in these two scratch arrays: operations on whole
    # rows, strided across the batch, ran slower and allocated buffers.
    prod = np.empty(t.shape[:-2])
    off = np.empty(t.shape[:-2], dtype=bool)
    for k in range(t.shape[-1]):
        tk = t[..., k, :]
        for j in range(k, t.shape[-1]):
            if np.not_equal(tk[..., j], float(j == k), out=off).any():
                raise NotUnitLowerTriangular(f"entry ({k + 1}, {j + 1}) of the factor is "
                                             "not that of a unit lower triangular matrix")
        # sigma[k, j] = phi_k @ sigma[:k, j] = -(t[k, :k] @ sigma[:k, j])
        for j in range(k):
            entry = sigma[..., k, j]
            np.multiply(tk[..., 0], sigma[..., 0, j], out=entry)
            for i in range(1, k):
                entry += np.multiply(tk[..., i], sigma[..., i, j], out=prod)
            np.negative(entry, out=entry)
            sigma[..., j, k] = entry
        # sigma[k, k] = sigma[k, :k] @ phi_k + d[k] = d[k] - sigma[k, :k] @ t[k, :k]
        var = sigma[..., k, k]
        var[...] = 0.0
        for i in range(k):
            var += np.multiply(sigma[..., k, i], tk[..., i], out=prod)
        np.subtract(d[..., k], var, out=var)
    return sigma
