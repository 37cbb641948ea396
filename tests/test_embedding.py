import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ivssa import (
    IntervalSeries,
    ParameterError,
    ShapeError,
    StackingMode,
    default_window,
    stack,
    trajectory,
)
from helpers import make_rng, random_series


class TestTrajectory:
    def test_values(self):
        y = IntervalSeries([1.0, 3.0, 5.0, 7.0], [2.0, 4.0, 6.0, 8.0])
        traj = trajectory(y, 2)
        assert traj.a.shape == traj.b.shape == (2, 3)
        # column j is the window starting at position j
        assert (traj.a[0, 0], traj.b[0, 0]) == (1.0, 2.0)
        assert (traj.a[1, 0], traj.b[1, 0]) == (3.0, 4.0)
        assert (traj.a[0, 2], traj.b[0, 2]) == (5.0, 6.0)
        assert (traj.a[1, 2], traj.b[1, 2]) == (7.0, 8.0)

    def test_hankel_by_construction(self):
        y = random_series(make_rng(0), 30)
        traj = trajectory(y, 7)
        # entry (i, j) is the value at position i + j, for every i and j
        idx = np.arange(7)[:, None] + np.arange(24)[None, :]
        assert np.array_equal(traj.a, y.lo[idx])
        assert np.array_equal(traj.b, y.hi[idx])

    @pytest.mark.parametrize("window", [0, 1, 10, 11])
    def test_window_bounds(self, window):
        y = random_series(make_rng(1), 10)
        with pytest.raises(ParameterError):
            trajectory(y, window)

    def test_non_integral_window_rejected(self):
        y = random_series(make_rng(1), 10)
        with pytest.raises(ParameterError, match="window must be an integer, got 2.5"):
            trajectory(y, 2.5)
        assert np.array_equal(trajectory(y, 3.0).a, trajectory(y, 3).a)

    def test_window_extremes_ok(self):
        y = random_series(make_rng(2), 10)
        assert trajectory(y, 2).a.shape == (2, 9)
        assert trajectory(y, 9).a.shape == (9, 2)


class TestStack:
    def test_vertical_shape_and_blocks(self):
        rng = make_rng(3)
        xs = [random_series(rng, 20) for _ in range(3)]
        stacked = stack(xs, 6, StackingMode.VERTICAL)
        assert stacked.a.shape == stacked.b.shape == (18, 15)
        for s, y in enumerate(xs):
            block = trajectory(y, 6)
            assert np.array_equal(stacked.a[6 * s : 6 * (s + 1)], block.a)
            assert np.array_equal(stacked.b[6 * s : 6 * (s + 1)], block.b)

    def test_horizontal_shape_and_blocks(self):
        rng = make_rng(4)
        xs = [random_series(rng, 20) for _ in range(2)]
        stacked = stack(xs, 6, StackingMode.HORIZONTAL)
        assert stacked.a.shape == stacked.b.shape == (6, 30)
        for s, y in enumerate(xs):
            block = trajectory(y, 6)
            assert np.array_equal(stacked.a[:, 15 * s : 15 * (s + 1)], block.a)

    def test_single_series_any_mode(self):
        y = random_series(make_rng(5), 15)
        base = trajectory(y, 4)
        for mode in StackingMode:
            single = stack([y], 4, mode)
            assert np.array_equal(single.a, base.a)
            assert np.array_equal(single.b, base.b)

    def test_unequal_lengths(self):
        rng = make_rng(6)
        with pytest.raises(ShapeError):
            stack([random_series(rng, 10), random_series(rng, 11)], 3,
                  StackingMode.VERTICAL)

    def test_univariate_mode_multi_series(self):
        rng = make_rng(7)
        xs = [random_series(rng, 10) for _ in range(2)]
        with pytest.raises(ParameterError):
            stack(xs, 3, StackingMode.UNIVARIATE)

    def test_empty(self):
        with pytest.raises(ParameterError):
            stack([], 3, StackingMode.VERTICAL)


class TestDefaultWindow:
    def test_univariate_values(self):
        assert default_window(249) == 125
        assert default_window(100) == 51
        assert default_window(3) == 2

    def test_stacked_values(self):
        assert default_window(100, 2, StackingMode.VERTICAL) == 34
        assert default_window(100, 2, StackingMode.HORIZONTAL) == 68

    def test_clamped(self):
        # horizontal for many series pushes toward n; stays below n - 1
        assert default_window(10, 9, StackingMode.HORIZONTAL) == 9

    def test_too_short(self):
        with pytest.raises(ParameterError):
            default_window(2)

    @given(st.integers(3, 500), st.integers(1, 6))
    def test_always_valid(self, n, d):
        for mode in StackingMode:
            window = default_window(n, d, mode)
            assert 2 <= window <= n - 1
