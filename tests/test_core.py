import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ivssa import (
    Interval,
    IntervalSeries,
    InvalidValueError,
    PairMatrix,
    ShapeError,
    hausdorff,
    phi,
    phi_arrays,
)
from helpers import make_rng, random_pair_matrix
from oracles import c_norm

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


class TestInterval:
    def test_ordering_enforced(self):
        with pytest.raises(InvalidValueError):
            Interval(2.0, 1.0)

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidValueError):
            Interval(float("nan"), 1.0)
        with pytest.raises(InvalidValueError):
            Interval(0.0, float("inf"))

    def test_width_mid(self):
        iv = Interval(1.0, 4.0)
        assert iv.width == 3.0
        assert iv.mid == 2.5

    def test_degenerate_allowed(self):
        assert Interval(1.5, 1.5).width == 0.0


class TestPhi:
    def test_reorders(self):
        assert phi(2.0, -1.0) == Interval(-1.0, 2.0)
        assert phi(-1.0, 2.0) == Interval(-1.0, 2.0)

    def test_nonfinite(self):
        with pytest.raises(InvalidValueError):
            phi(float("nan"), 0.0)

    @given(finite, finite)
    def test_bounds(self, x, y):
        iv = phi(x, y)
        assert iv.lo == min(x, y)
        assert iv.hi == max(x, y)

    @given(st.lists(st.tuples(finite, finite), min_size=1, max_size=30))
    def test_phi_arrays_matches_scalar(self, pairs):
        x = np.array([p[0] for p in pairs])
        y = np.array([p[1] for p in pairs])
        lo, hi = phi_arrays(x, y)
        for t, (a, b) in enumerate(pairs):
            iv = phi(a, b)
            assert lo[t] == iv.lo and hi[t] == iv.hi


class TestPairMatrix:
    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            PairMatrix(np.zeros((2, 2)), np.zeros((2, 3)))

    def test_nonfinite(self):
        bad = np.array([[np.nan]])
        with pytest.raises(InvalidValueError):
            PairMatrix(bad, bad)

    def test_grids_readonly(self):
        y = random_pair_matrix(make_rng(0), 3, 4)
        with pytest.raises(ValueError):
            y.a[0, 0] = 5.0


class TestCNorm:
    """The reference C-norm that acceptance criteria 2 and 3 measure with."""

    def test_known_value(self):
        # single pair (3, 4): sqrt((9 + 16) / 2)
        assert c_norm(np.array([[3.0]]), np.array([[4.0]])) == pytest.approx(
            math.sqrt(12.5), rel=1e-15
        )

    def test_degenerate_matches_frobenius(self):
        rng = make_rng(3)
        a = rng.standard_normal((4, 6))
        assert c_norm(a, a.copy()) == pytest.approx(np.linalg.norm(a), rel=1e-12)

    def test_zero_iff_zero(self):
        assert c_norm(np.zeros((2, 2)), np.zeros((2, 2))) == 0.0
        y = random_pair_matrix(make_rng(4), 2, 2)
        assert c_norm(y.a, y.b) > 0.0

    def test_triangle_inequality(self):
        rng = make_rng(5)
        x = random_pair_matrix(rng, 3, 3)
        y = random_pair_matrix(rng, 3, 3)
        total = c_norm(x.a + y.a, x.b + y.b)
        assert total <= c_norm(x.a, x.b) + c_norm(y.a, y.b) + 1e-12


class TestHausdorff:
    def test_known_value(self):
        assert hausdorff(Interval(1, 3), Interval(2, 7)) == 4.0

    @given(finite, finite, finite, finite)
    def test_metric_axioms(self, a, b, c, d):
        x = phi(a, b)
        y = phi(c, d)
        assert hausdorff(x, y) >= 0.0
        assert hausdorff(x, y) == hausdorff(y, x)
        assert hausdorff(x, x) == 0.0


class TestIntervalSeries:
    def test_ordering_enforced(self):
        with pytest.raises(InvalidValueError):
            IntervalSeries([0.0, 2.0], [1.0, 1.0])

    def test_indexing(self):
        y = IntervalSeries.from_pairs([(0, 1), (1, 3), (2, 2)], labels=["a", "b", "c"])
        assert len(y) == 3
        assert y[1] == Interval(1, 3)
        assert y[-1] == Interval(2, 2)
        part = y[1:]
        assert isinstance(part, IntervalSeries)
        assert len(part) == 2 and part.labels == ("b", "c")

    def test_iter_and_eq(self):
        y = IntervalSeries.from_pairs([(0, 1), (1, 3)])
        assert list(y) == [Interval(0, 1), Interval(1, 3)]
        assert y == IntervalSeries([0.0, 1.0], [1.0, 3.0])

    def test_widths_mids(self):
        y = IntervalSeries([0.0, 1.0], [2.0, 5.0])
        assert np.array_equal(y.widths, [2.0, 4.0])
        assert np.array_equal(y.mids, [1.0, 3.0])

    def test_is_degenerate(self):
        assert IntervalSeries([1.0, 2.0], [1.0, 2.0]).is_degenerate()
        assert not IntervalSeries([1.0], [1.5]).is_degenerate()
        assert IntervalSeries([1.0], [1.0 + 1e-12]).is_degenerate(tol=1e-10)

    def test_label_length_check(self):
        with pytest.raises(ShapeError):
            IntervalSeries([0.0], [1.0], labels=("a", "b"))

    def test_value_eq_but_unhashable(self):
        y = IntervalSeries([0.0, 1.0], [1.0, 3.0])
        assert y == IntervalSeries([0.0, 1.0], [1.0, 3.0])
        assert y != IntervalSeries([0.0, 1.0], [1.0, 4.0])
        with pytest.raises(TypeError, match="IntervalSeries"):
            hash(y)

    def test_arrays_readonly(self):
        y = IntervalSeries([0.0], [1.0])
        with pytest.raises(ValueError):
            y.lo[0] = -1.0
