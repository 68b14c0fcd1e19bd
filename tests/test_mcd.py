import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scgarch.exceptions import (
    DimensionMismatch,
    NonPositiveDiagonal,
    NotPositiveDefinite,
    NotUnitLowerTriangular,
)
from scgarch import mcd
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


def random_factor_path(n, p, seed):
    rng = np.random.default_rng(seed)
    t = np.broadcast_to(np.eye(p), (n, p, p)).copy()
    j, k = np.tril_indices(p, -1)
    t[:, j, k] = rng.uniform(-0.8, 0.8, (n, len(j)))
    return t, rng.uniform(0.5, 2.0, (n, p))


class TestRecursion:
    """``mcd_reconstruct`` builds sigma by the regressions, with no inverse."""

    @pytest.mark.parametrize("n, p", [(64, 1), (256, 3), (128, 6), (32, 10)])
    def test_exactly_symmetric_and_equal_to_the_inverse_form(self, n, p):
        t, d = random_factor_path(n, p, seed=n + p)
        sigma = mcd_reconstruct(t, d)
        np.testing.assert_array_equal(sigma, sigma.transpose(0, 2, 1))
        tinv = np.linalg.inv(t)
        expected = tinv @ (d[:, :, None] * tinv.transpose(0, 2, 1))
        scale = np.abs(expected).max(axis=(1, 2))[:, None, None]
        assert np.max(np.abs(sigma - expected) / scale) <= 1e-14

    def test_accepts_a_broadcast_factor(self):
        t, d = random_factor_path(200, 4, seed=1)
        shared = np.broadcast_to(t[0], t.shape)
        assert not shared.flags.writeable
        np.testing.assert_array_equal(mcd_reconstruct(shared, d),
                                      mcd_reconstruct(np.array(shared), d))

    @pytest.mark.parametrize("n", [1, mcd._BLOCK_STEPS, 2 * mcd._BLOCK_STEPS + 3])
    def test_blocks_of_matrices_change_no_bit(self, n):
        # Rebuilt at once, in uneven pieces, and one matrix at a time.
        t, d = random_factor_path(n, 5, seed=n)
        whole = mcd_reconstruct(t, d)
        cuts = sorted({0, 1, n // 3, n})
        pieces = np.concatenate([mcd_reconstruct(t[a:b], d[a:b])
                                 for a, b in zip(cuts, cuts[1:])])
        np.testing.assert_array_equal(pieces.view(np.int64), whole.view(np.int64))
        for k in (0, n // 2, n - 1):
            np.testing.assert_array_equal(mcd_reconstruct(t[k], d[k]).view(np.int64),
                                          whole[k].view(np.int64))

    def test_names_the_first_failing_entry_over_all_blocks(self):
        t, d = random_factor_path(2 * mcd._BLOCK_STEPS + 1, 4, seed=5)
        t[0, 2, 3] = 0.5  # first block
        t[-1, 1, 2] = 0.5  # last block, but first in row order
        with pytest.raises(NotUnitLowerTriangular, match=r"entry \(2, 3\)"):
            mcd_reconstruct(t, d)

    @pytest.mark.parametrize("entry, value", [((0, 2), 1e-300), ((1, 3), -0.5),
                                              ((0, 0), 2.0), ((3, 3), 1.0 + 4e-16),
                                              ((2, 2), np.nan)],
                             ids=["upper-tiny", "upper", "first-diagonal",
                                  "last-diagonal", "nan-diagonal"])
    def test_not_unit_lower_triangular_raises(self, entry, value):
        t, d = random_factor_path(50, 4, seed=2)
        t[-1][entry] = value  # the last step only
        with pytest.raises(NotUnitLowerTriangular,
                           match=rf"entry \({entry[0] + 1}, {entry[1] + 1}\)"):
            mcd_reconstruct(t, d)
        with pytest.raises(NotUnitLowerTriangular):
            mcd_reconstruct(t[-1], d[-1])


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
