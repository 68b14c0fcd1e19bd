import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scgarch.exceptions import DimensionMismatch, NonPositiveDiagonal, NotPositiveDefinite
from scgarch.mcd import mcd_decompose, mcd_reconstruct
from scgarch.model import CovariancePath


def random_pd(dim, rng, eps=1e-3):
    a = rng.standard_normal((dim, dim))
    return a @ a.T + eps * np.eye(dim)


class TestDecompose:
    def test_identity(self):
        t, d = mcd_decompose(np.eye(3))
        np.testing.assert_array_equal(t, np.eye(3))
        np.testing.assert_array_equal(d, np.ones(3))

    def test_diagonal(self):
        t, d = mcd_decompose(np.diag([2.0, 3.0, 4.0]))
        np.testing.assert_array_equal(t, np.eye(3))
        np.testing.assert_array_equal(d, [2.0, 3.0, 4.0])

    def test_3x3_against_sequential_ols(self):
        # Expected values frozen from solving the 1x1 then 2x2 normal
        # equations by hand: phi_21 = 0.5; phi_3 = (0.1, 0.3);
        # d = (2, 3 - 0.5*1, 4 - (0.5*0.1 + 1*0.3)) = (2, 2.5, 3.65).
        sigma = np.array([[2.0, 1.0, 0.5], [1.0, 3.0, 1.0], [0.5, 1.0, 4.0]])
        t, d = mcd_decompose(sigma)
        expected_t = np.array([[1.0, 0.0, 0.0], [-0.5, 1.0, 0.0], [-0.1, -0.3, 1.0]])
        np.testing.assert_allclose(t, expected_t, atol=1e-12)
        np.testing.assert_allclose(d, [2.0, 2.5, 3.65], atol=1e-12)
        np.testing.assert_allclose(t @ sigma @ t.T, np.diag(d), atol=1e-10)

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefinite):
            mcd_decompose(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_rejects_asymmetric(self):
        with pytest.raises(DimensionMismatch):
            mcd_decompose(np.array([[1.0, 0.1], [0.2, 1.0]]))

    def test_p1_degenerate(self):
        t, d = mcd_decompose(np.array([[3.5]]))
        np.testing.assert_array_equal(t, [[1.0]])
        np.testing.assert_array_equal(d, [3.5])


class TestReconstruct:
    def test_identity(self):
        np.testing.assert_array_equal(mcd_reconstruct(np.eye(3), np.ones(3)), np.eye(3))

    def test_2x2_hand_example(self):
        # inv(T) D inv(T)' with phi_21 = 0.5 and unit variances.
        t = np.array([[1.0, 0.0], [-0.5, 1.0]])
        sigma = mcd_reconstruct(t, np.ones(2))
        np.testing.assert_allclose(sigma, [[1.0, 0.5], [0.5, 1.25]], atol=1e-14)

    def test_roundtrip_of_3x3(self):
        sigma = np.array([[2.0, 1.0, 0.5], [1.0, 3.0, 1.0], [0.5, 1.0, 4.0]])
        t, d = mcd_decompose(sigma)
        np.testing.assert_allclose(mcd_reconstruct(t, d), sigma, atol=1e-10)

    def test_batch_matches_each_matrix(self):
        rng = np.random.default_rng(3)
        t = np.broadcast_to(np.eye(3), (5, 3, 3)).copy()
        t[:, [1, 2, 2], [0, 0, 1]] = rng.standard_normal((5, 3))
        d = rng.exponential(size=(5, 3))
        np.testing.assert_array_equal(mcd_reconstruct(t, d),
                                      [mcd_reconstruct(tk, dk) for tk, dk in zip(t, d)])

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            mcd_reconstruct(np.eye(3), np.ones(2))
        with pytest.raises(DimensionMismatch):
            mcd_reconstruct(np.broadcast_to(np.eye(3), (4, 3, 3)), np.ones(3))


def cov_to_corr(sigma):
    """Correlation matrix of one covariance matrix, via a one-step path."""
    return CovariancePath(np.asarray(sigma)[None]).correlations()[0]


class TestCovToCorr:
    def test_diagonal_becomes_identity(self):
        np.testing.assert_array_equal(cov_to_corr(np.diag([2.0, 3.0, 4.0])), np.eye(3))

    def test_formula(self):
        corr = cov_to_corr(np.array([[1.0, 0.5], [0.5, 1.25]]))
        assert corr[0, 1] == pytest.approx(0.5 / np.sqrt(1.25))
        assert corr[0, 0] == corr[1, 1] == 1.0

    def test_idempotent_on_correlation_matrix(self):
        rng = np.random.default_rng(7)
        corr = cov_to_corr(random_pd(4, rng))
        np.testing.assert_allclose(cov_to_corr(corr), corr, atol=1e-15)
        assert np.all(np.abs(corr) <= 1.0 + 1e-12)

    def test_rejects_nonpositive_diagonal(self):
        with pytest.raises(NonPositiveDiagonal):
            cov_to_corr(np.array([[0.0, 0.0], [0.0, 1.0]]))


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(1, 10), seed=st.integers(0, 2**32 - 1))
def test_roundtrip_random_pd(dim, seed):
    sigma = random_pd(dim, np.random.default_rng(seed))
    t, d = mcd_decompose(sigma)
    np.testing.assert_allclose(mcd_reconstruct(t, d), sigma, atol=1e-9 * max(1.0, sigma.max()))


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_reconstruct_is_pd_for_any_coefficients(dim, seed):
    # Any unit lower triangular T with positive d must map to a PD matrix:
    # all leading principal minors strictly positive.
    rng = np.random.default_rng(seed)
    t = np.eye(dim)
    idx = np.tril_indices(dim, -1)
    t[idx] = rng.uniform(-5.0, 5.0, size=len(idx[0]))
    d = rng.uniform(0.1, 4.0, size=dim)
    sigma = mcd_reconstruct(t, d)
    for k in range(1, dim + 1):
        assert np.linalg.det(sigma[:k, :k]) > 0


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(1, 10), seed=st.integers(0, 2**32 - 1))
def test_decomposition_whitens(dim, seed):
    sigma = random_pd(dim, np.random.default_rng(seed))
    t, d = mcd_decompose(sigma)
    prod = t @ sigma @ t.T
    off = prod - np.diag(np.diag(prod))
    assert np.max(np.abs(off)) < 1e-9 * max(1.0, sigma.max())
    assert np.all(d > 0)
