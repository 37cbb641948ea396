import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ivssa import (
    IntervalSeries,
    InvalidValueError,
    PairMatrix,
    ParameterError,
    ShapeError,
    phi_arrays,
)
from ivssa.core import _integer
from helpers import make_rng, random_pair_matrix
from oracles import c_norm, phi_scalar

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


class TestInteger:
    @pytest.mark.parametrize("value", [5, 5.0, np.int64(5), np.float32(5.0)])
    def test_integral_values_accepted(self, value):
        got = _integer(value, "size", 1)
        assert got == 5 and type(got) is int

    @pytest.mark.parametrize(
        "value, message",
        [
            (5.5, "size must be an integer, got 5.5"),
            (math.inf, "size must be an integer, got inf"),
            (math.nan, "size must be an integer, got nan"),
            ("5", "size must be an integer, got 5"),
            (0, "size must be >= 1, got 0"),
            (np.float64(-2.0), "size must be >= 1, got -2.0"),
        ],
    )
    def test_rejected_values_name_the_parameter(self, value, message):
        with pytest.raises(ParameterError) as got:
            _integer(value, "size", 1)
        assert str(got.value) == message

    def test_ints_beyond_float_range_are_checked_as_ints(self):
        # float(10**400) would raise OverflowError
        assert _integer(10**400, "size", 1) == 10**400
        with pytest.raises(ParameterError, match="size must be >= 1"):
            _integer(-(10**400), "size", 1)
        with pytest.raises(ParameterError, match="size must be >= 1000"):
            _integer(np.int64(9), "size", 10**400)


class TestPhi:
    @given(st.lists(st.tuples(finite, finite), min_size=1, max_size=30))
    def test_phi_arrays_matches_scalar(self, pairs):
        x = np.array([p[0] for p in pairs])
        y = np.array([p[1] for p in pairs])
        lo, hi = phi_arrays(x, y)
        for t, (a, b) in enumerate(pairs):
            assert (lo[t], hi[t]) == phi_scalar(a, b)


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


class TestIntervalSeries:
    def test_ordering_enforced(self):
        with pytest.raises(InvalidValueError):
            IntervalSeries([0.0, 2.0], [1.0, 1.0])

    def test_nonfinite_rejected(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(InvalidValueError, match="series lo"):
                IntervalSeries([bad, 0.0], [1.0, 1.0])
            with pytest.raises(InvalidValueError, match="series hi"):
                IntervalSeries([0.0, 0.0], [1.0, bad])

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
