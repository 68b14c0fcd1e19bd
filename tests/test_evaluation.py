import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scgarch.evaluation import (
    loss_paths,
    moving_block_proxy,
    select_block_size,
)
from scgarch.exceptions import (
    BlockTooLarge,
    BlockTooSmall,
    DimensionMismatch,
    InvalidBlockSize,
)
from scgarch.model import CovariancePath, TimeSeriesPanel


def path_from(arrays):
    return CovariancePath(np.asarray(arrays, dtype=float))


class TestMovingBlockProxy:
    def test_constant_panel(self):
        panel = TimeSeriesPanel(np.full((9, 1), 2.0))
        proxy = moving_block_proxy(panel, 3)
        np.testing.assert_allclose(proxy.sigmas, np.full((9, 1, 1), 4.0))

    def test_full_window_equals_batch_moments(self):
        rng = np.random.default_rng(0)
        y = rng.standard_normal((21, 3))
        proxy = moving_block_proxy(TimeSeriesPanel(y), 21)
        batch = y.T @ y / 21
        assert np.max(np.abs(proxy.sigmas - batch)) < 1e-12

    def test_hand_window(self):
        panel = TimeSeriesPanel(np.array([[1.0], [2.0], [3.0], [4.0], [5.0]]))
        proxy = moving_block_proxy(panel, 3)
        # interior: mean of squares over the centered window
        assert proxy.sigmas[2, 0, 0] == pytest.approx(29.0 / 3.0)
        # edges shift the window inward, still averaging q points
        assert proxy.sigmas[0, 0, 0] == pytest.approx((1.0 + 4.0 + 9.0) / 3.0)
        assert proxy.sigmas[4, 0, 0] == pytest.approx((9.0 + 16.0 + 25.0) / 3.0)

    def test_block_size_errors(self):
        panel = TimeSeriesPanel(np.arange(5.0).reshape(5, 1) + 1.0)
        with pytest.raises(BlockTooSmall):
            moving_block_proxy(panel, 1)
        with pytest.raises(BlockTooLarge):
            moving_block_proxy(panel, 7)
        with pytest.raises(InvalidBlockSize):
            moving_block_proxy(panel, 4)

    @pytest.mark.parametrize("q", [5.9, 5.0, "5"])
    def test_non_integer_block_size_is_rejected(self, q):
        panel = TimeSeriesPanel(np.arange(9.0).reshape(9, 1) + 1.0)
        with pytest.raises(InvalidBlockSize, match="must be an integer"):
            moving_block_proxy(panel, q)

    def test_numpy_integer_block_size_is_accepted(self):
        panel = TimeSeriesPanel(np.arange(9.0).reshape(9, 1) + 1.0)
        np.testing.assert_array_equal(moving_block_proxy(panel, np.int64(5)).sigmas,
                                      moving_block_proxy(panel, 5).sigmas)

    def test_outputs_are_psd(self):
        rng = np.random.default_rng(5)
        proxy = moving_block_proxy(TimeSeriesPanel(rng.standard_normal((50, 2))), 7)
        assert np.all(np.linalg.eigvalsh(proxy.sigmas)[:, 0] > -1e-12)


class TestLossPaths:
    def test_perfect_estimate(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((4, 2, 2))
        sig = a @ a.transpose(0, 2, 1) + np.eye(2)
        rep = loss_paths(path_from(sig), path_from(sig))
        assert rep.mae == rep.mse == 0.0
        np.testing.assert_array_equal(rep.mae_path, np.zeros(4))

    def test_hand_example(self):
        truth = path_from([[[1.0, 0.5], [0.5, 2.0]]])
        est = path_from([[[1.1, 0.3], [0.3, 2.3]]])  # diffs 0.1, -0.2, -0.2, 0.3
        rep = loss_paths(est, truth)
        assert rep.mae == pytest.approx(0.2)
        assert rep.mse == pytest.approx(0.045)
        assert rep.mae == pytest.approx(np.mean(rep.mae_path))
        assert rep.mse == pytest.approx(np.mean(rep.mse_path))

    def test_symmetry_in_arguments(self):
        rng = np.random.default_rng(3)
        a = path_from(rng.standard_normal((6, 2, 2)))
        b = path_from(rng.standard_normal((6, 2, 2)))
        ra, rb = loss_paths(a, b), loss_paths(b, a)
        assert ra.mae == rb.mae and ra.mse == rb.mse

    def test_correlation_scale_ignores_diagonal_rescaling(self):
        rng = np.random.default_rng(4)
        base = rng.standard_normal((5, 2, 2))
        sig = base @ base.transpose(0, 2, 1) + 2 * np.eye(2)
        est = sig + 0.1
        scale = np.diag([2.0, 0.5])
        rep1 = loss_paths(path_from(est), path_from(sig), "correlation")
        rep2 = loss_paths(
            path_from(scale @ est @ scale), path_from(scale @ sig @ scale),
            "correlation",
        )
        assert rep1.mae == pytest.approx(rep2.mae, rel=1e-12)
        assert rep1.mse == pytest.approx(rep2.mse, rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            loss_paths(path_from(np.zeros((3, 2, 2))), path_from(np.zeros((4, 2, 2))))


@settings(max_examples=40, deadline=None)
@given(c=st.floats(0.01, 100.0), seed=st.integers(0, 2**31 - 1))
def test_loss_scaling(c, seed):
    rng = np.random.default_rng(seed)
    a = path_from(rng.standard_normal((4, 2, 2)))
    b = path_from(rng.standard_normal((4, 2, 2)))
    base = loss_paths(a, b)
    scaled = loss_paths(path_from(c * a.sigmas), path_from(c * b.sigmas))
    assert scaled.mae == pytest.approx(c * base.mae, rel=1e-9)
    assert scaled.mse == pytest.approx(c * c * base.mse, rel=1e-9)


class TestSelectBlockSize:
    def test_single_candidate(self):
        rng = np.random.default_rng(0)
        panel = TimeSeriesPanel(rng.standard_normal((40, 2)))
        sel = select_block_size(panel, [5])
        assert sel.q_star == 5 and sel.stable
        assert len(sel.table) == 1
        assert sel.table[0].mae_diff is None

    def test_non_integer_candidate_is_rejected(self):
        panel = TimeSeriesPanel(np.random.default_rng(1).standard_normal((40, 2)))
        with pytest.raises(InvalidBlockSize, match="must be an integer"):
            select_block_size(panel, [5.5, 9.2, 21])

    def test_requires_increasing_candidates(self):
        rng = np.random.default_rng(1)
        panel = TimeSeriesPanel(rng.standard_normal((40, 2)))
        with pytest.raises(ValueError):
            select_block_size(panel, [9, 5])

    def test_unstable_flag_when_threshold_unreachable(self):
        rng = np.random.default_rng(2)
        panel = TimeSeriesPanel(rng.standard_normal((100, 2)))
        sel = select_block_size(panel, [5, 9, 15], threshold_frac=0.0)
        assert sel.q_star == 15 and not sel.stable

    @pytest.mark.parametrize("threshold", [-1.0, np.nan, np.inf])
    def test_rejects_negative_or_non_finite_threshold(self, threshold):
        panel = TimeSeriesPanel(np.random.default_rng(2).standard_normal((100, 2)))
        with pytest.raises(ValueError, match="threshold"):
            select_block_size(panel, [5, 9, 15], threshold_frac=threshold)

    def test_iid_differences_shrink_in_the_tail(self):
        candidates = [5, 9, 15, 25, 41, 61, 85]
        mae_diffs, mse_diffs = [], []
        for seed in range(20):
            rng = np.random.default_rng(seed)
            panel = TimeSeriesPanel(rng.standard_normal((2000, 2)))
            sel = select_block_size(panel, candidates)
            mae_diffs.append([r.mae_diff for r in sel.table[1:]])
            mse_diffs.append([r.mse_diff for r in sel.table[1:]])
        for diffs in (mae_diffs, mse_diffs):
            med = np.median(np.asarray(diffs), axis=0)
            assert np.all(np.diff(med[-3:]) <= 0)

    def test_table_is_auditable(self):
        rng = np.random.default_rng(3)
        panel = TimeSeriesPanel(rng.standard_normal((200, 2)))
        sel = select_block_size(panel, [5, 11, 21])
        assert [r.q for r in sel.table] == [5, 11, 21]
        assert all(r.mae >= 0 and r.mse >= 0 for r in sel.table)
        assert all(r.mae_diff is not None for r in sel.table[1:])


def test_unknown_scale_is_rejected():
    with pytest.raises(ValueError, match="scale must be one of"):
        loss_paths(path_from(np.zeros((3, 2, 2))), path_from(np.zeros((3, 2, 2))),
                   scale="bogus")


def test_no_candidate_is_rejected():
    panel = TimeSeriesPanel(np.random.default_rng(2).standard_normal((40, 2)))
    with pytest.raises(ValueError, match="at least one candidate"):
        select_block_size(panel, [])
