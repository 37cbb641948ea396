import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ivssa import (
    EigenPairs,
    Grouping,
    IntervalSeries,
    ParameterError,
    RecurrenceCoefficients,
    VerticalityError,
    decompose,
    default_l_grid,
    forecast_recurrent,
    recurrence_coefficients,
    select_params_oos,
    trendline,
)
from ivssa.forecasting import _recurrence, _run_recurrence
from helpers import assert_compares_by_identity, make_rng, structured_series
from oracles import forecast_loop, oos_objective_loop


def eigenpairs_from_vectors(vectors: np.ndarray) -> EigenPairs:
    d = vectors.shape[1]
    return EigenPairs(
        values=np.linspace(d, 1, d), vectors=vectors, d=d
    )


class TestRecurrenceCoefficients:
    def test_order_one_identity(self):
        # single eigenvector (1, 1)/sqrt(2): alpha = (1)
        u = np.array([[1.0], [1.0]]) / math.sqrt(2.0)
        coef = recurrence_coefficients(eigenpairs_from_vectors(u), Grouping((1,)))
        assert coef.order == 1
        assert coef.alpha[0] == pytest.approx(1.0, rel=1e-14)
        assert coef.verticality == pytest.approx(0.5, rel=1e-14)

    def test_geometric_series_weights(self):
        # x_t = 2^t has the rank-one eigenvector (1,2,4)/sqrt(21);
        # alpha = (8/5, 4/5) and lag-1 gets the larger weight
        u = np.array([[1.0], [2.0], [4.0]]) / math.sqrt(21.0)
        coef = recurrence_coefficients(eigenpairs_from_vectors(u), Grouping((1,)))
        assert coef.alpha == pytest.approx([1.6, 0.8], rel=1e-14)

    def test_from_real_decomposition(self):
        t = np.arange(1, 41, dtype=float)
        vals = 2.0 ** (t / 8.0)
        y = IntervalSeries(vals, vals.copy())
        dec = decompose(y, 3)
        coef = recurrence_coefficients(dec.eig, Grouping((1,)))
        # recurrence must continue the geometric sequence exactly
        r = 2.0 ** (1.0 / 8.0)
        assert coef.alpha @ [vals[-1], vals[-2]] == pytest.approx(
            vals[-1] * r, rel=1e-10
        )

    def test_vertical_space_rejected(self):
        coef_vectors = np.eye(3)
        with pytest.raises(VerticalityError):
            recurrence_coefficients(
                eigenpairs_from_vectors(coef_vectors), Grouping((3,))
            )

    def test_grouping_beyond_rank(self):
        u = np.array([[1.0], [0.0]])
        with pytest.raises(ParameterError):
            recurrence_coefficients(eigenpairs_from_vectors(u), Grouping((2,)))

    def test_weights_independent_of_vector_layout(self):
        # the grid search slices the eigenvector columns, the public call
        # copies them by index: the weights must agree bit for bit
        y = structured_series(40, seed=0, noise=0.2)
        for w in (7, 15, 22):
            eig = decompose(IntervalSeries(y.lo[:w], y.hi[:w]), 5).eig
            alpha, _ = _recurrence(eig.vectors[:, :4])
            want = recurrence_coefficients(eig, Grouping.leading(4)).alpha
            assert np.array_equal(alpha, want)

    def test_compares_by_identity(self):
        u = np.array([[1.0], [2.0], [4.0]]) / math.sqrt(21.0)
        eig = eigenpairs_from_vectors(u)
        assert_compares_by_identity(
            lambda: recurrence_coefficients(eig, Grouping((1,)))
        )

    def test_window_one_rejected(self):
        u = np.array([[1.0]])
        with pytest.raises(ParameterError):
            recurrence_coefficients(eigenpairs_from_vectors(u), Grouping((1,)))


class TestForecastRecurrent:
    def test_geometric_continuation(self):
        t = np.arange(1, 31, dtype=float)
        vals = 2.0**t
        y = IntervalSeries(vals, vals.copy())
        dec = decompose(y, 3)
        assert dec.d == 1
        coef = recurrence_coefficients(dec.eig, Grouping((1,)))
        trend = trendline(dec, Grouping((1,)))[0]
        fc = forecast_recurrent(trend, coef, 5)
        expect = 2.0 ** np.arange(31, 36)
        assert np.allclose(fc.values.lo, expect, rtol=1e-9)
        assert np.allclose(fc.values.hi, expect, rtol=1e-9)
        assert fc.horizon == 5 and fc.origin == 30

    def test_channels_reordered_and_fed_back(self):
        coef = RecurrenceCoefficients(alpha=np.array([-1.0]), verticality=0.0)
        trend = IntervalSeries([1.0], [2.0])
        fc = forecast_recurrent(trend, coef, 3)
        # step 1 crosses (-1, -2) -> [-2, -1]; feeding back keeps channels ordered
        assert np.allclose(fc.values.lo, [-2.0, 1.0, -2.0])
        assert np.allclose(fc.values.hi, [-1.0, 2.0, -1.0])

    def test_interval_validity_always(self):
        y = structured_series(80, seed=1, noise=0.3)
        dec = decompose(y)
        coef = recurrence_coefficients(dec.eig, Grouping.leading(4))
        trend = trendline(dec, Grouping.leading(4))[0]
        fc = forecast_recurrent(trend, coef, 24)
        assert np.all(fc.values.lo <= fc.values.hi)

    def test_parameter_errors(self):
        coef = RecurrenceCoefficients(alpha=np.array([0.5, 0.5]), verticality=0.0)
        trend = IntervalSeries([1.0], [1.0])
        with pytest.raises(ParameterError):
            forecast_recurrent(trend, coef, 0)
        with pytest.raises(ParameterError):
            forecast_recurrent(trend, coef, 3)


def geometric_case():
    t = np.arange(1, 31, dtype=float)
    vals = 2.0**t
    dec = decompose(IntervalSeries(vals, vals.copy()), 3)
    trend = trendline(dec, Grouping((1,)))[0]
    return trend, recurrence_coefficients(dec.eig, Grouping((1,))).alpha, 5


def reordering_case():
    return IntervalSeries([1.0], [2.0]), np.array([-1.0]), 3


def long_trend_case(m: int = 4):
    # window 50 on 100 points: a recurrence of order 49
    dec = decompose(structured_series(100, seed=6, noise=0.2), 50)
    trend = trendline(dec, Grouping.leading(m))[0]
    return trend, recurrence_coefficients(dec.eig, Grouping.leading(m)).alpha, 24


class TestRecurrenceStepper:
    """The one recurrence stepper against the scalar loop of ``forecast_loop``."""

    @pytest.mark.parametrize("case", [geometric_case, reordering_case, long_trend_case])
    def test_one_row_matches_scalar_loop(self, case):
        trend, alpha, horizon = case()
        coef = RecurrenceCoefficients(alpha=alpha, verticality=0.0)
        fc = forecast_recurrent(trend, coef, horizon)
        want_lo, want_hi = forecast_loop(trend.lo, trend.hi, alpha, horizon)
        np.testing.assert_allclose(fc.values.lo, want_lo, rtol=1e-13, atol=0)
        np.testing.assert_allclose(fc.values.hi, want_hi, rtol=1e-13, atol=0)

    def test_rows_advance_independently(self):
        cases = [long_trend_case(m) for m in range(1, 7)]
        alpha = np.array([c[1] for c in cases])
        lo, hi = _run_recurrence(
            alpha,
            np.array([c[0].lo[-49:] for c in cases]),
            np.array([c[0].hi[-49:] for c in cases]),
            24,
        )
        for r, (trend, a, horizon) in enumerate(cases):
            want_lo, want_hi = forecast_loop(trend.lo, trend.hi, a, horizon)
            np.testing.assert_allclose(lo[r], want_lo, rtol=1e-13, atol=0)
            np.testing.assert_allclose(hi[r], want_hi, rtol=1e-13, atol=0)


def assert_matches_oracle(y, l_grid, m_grid, w0, p, stride):
    """Same failed set, same pick and the same objectives as the nested loop."""
    ref = oos_objective_loop(y, l_grid, m_grid, w0=w0, p=p, stride=stride)
    want_failed = {cell for cell, v in ref.items() if math.isinf(v)}
    if len(want_failed) == len(ref):
        with pytest.raises(ParameterError):
            select_params_oos(y, l_grid=l_grid, m_grid=m_grid, w0=w0, p=p, stride=stride)
        return None
    res = select_params_oos(y, l_grid=l_grid, m_grid=m_grid, w0=w0, p=p, stride=stride)
    assert res.failed == want_failed
    assert set(res.failure_reasons) == want_failed
    for cell, want in ref.items():
        if not math.isinf(want):
            assert res.objective[cell] == pytest.approx(want, rel=1e-12, abs=1e-12)
    best = min((v, cell[1], cell[0]) for cell, v in ref.items())
    assert (res.window, res.m) == (best[2], best[1])
    return res


class TestDefaultLGrid:
    def test_values(self):
        assert default_l_grid(105) == (21, 27, 35, 53)
        assert default_l_grid(100) == (20, 25, 34, 50)

    def test_dedupes_small_n(self):
        grid = default_l_grid(8)
        assert grid == tuple(sorted(set(grid)))
        assert all(v >= 2 for v in grid)

    def test_too_short(self):
        with pytest.raises(ParameterError):
            default_l_grid(3)


class TestSelectParamsOos:
    def test_matches_nested_loop_oracle(self):
        y = structured_series(36, seed=2, noise=0.15)
        l_grid = (6, 10)
        m_grid = (1, 2, 3)
        res = select_params_oos(y, l_grid=l_grid, m_grid=m_grid, w0=20, p=4, stride=2)
        ref = oos_objective_loop(y, l_grid, m_grid, w0=20, p=4, stride=2)
        for cell, want in ref.items():
            got = res.objective[cell]
            if math.isinf(want):
                assert math.isinf(got) and cell in res.failed
            else:
                assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
        best = min((v, cell[1], cell[0]) for cell, v in ref.items())
        assert (res.window, res.m) == (best[2], best[1])

    def test_rank_short_cells_fail(self):
        t = np.arange(1, 41, dtype=float)
        vals = 2.0 ** (t / 10.0)
        y = IntervalSeries(vals, vals.copy())
        res = select_params_oos(y, l_grid=(5,), m_grid=(1, 4), w0=20, p=5)
        assert (5, 4) in res.failed
        assert math.isinf(res.objective[(5, 4)])
        assert res.failure_reasons == {(5, 4): "rank"}
        assert res.m == 1

    @staticmethod
    def vertical_series() -> IntervalSeries:
        # The mid channel is nonzero only before t = l-1 = 4, so the last
        # trajectory row of C is zero; one radius spike at t = 7 adds
        # e_l e_l' * 1e-6/3 to S.  From the fit y[:8] on, e_l is the 5th
        # eigenvector: m = 5 is vertical and m = 1..4 have nu^2 = 0.
        mid = np.zeros(14)
        mid[:4] = [3.0, 1.0, 2.0, 1.0]
        rad = np.zeros(14)
        rad[7] = 1e-3
        return IntervalSeries(mid - rad, mid + rad)

    def test_vertical_cells_fail(self):
        y = self.vertical_series()
        res = assert_matches_oracle(y, (5,), (1, 5, 6), w0=8, p=3, stride=1)
        assert res.failure_reasons == {(5, 5): "vertical", (5, 6): "rank"}
        assert (res.window, res.m) == (5, 1)

    def test_first_reason_in_ascending_fit_length_kept(self):
        # y[:7] ends before the spike: d = 4, so m = 5 is short of rank
        # there and only vertical from y[:8] on
        y = self.vertical_series()
        res = select_params_oos(y, l_grid=(5,), m_grid=(1, 5), w0=7, p=3)
        assert res.failure_reasons == {(5, 5): "rank"}

    @settings(max_examples=25)
    @given(
        n=st.integers(24, 60),
        seed=st.integers(0, 2**16),
        noise=st.sampled_from([0.0, 0.2, 1.0]),
        stride=st.integers(1, 3),
        p=st.integers(1, 6),
        data=st.data(),
    )
    def test_matches_oracle_property(self, n, seed, noise, stride, p, data):
        y = structured_series(n, seed=seed, noise=noise)
        l_grid = tuple(sorted(data.draw(
            st.lists(st.integers(2, n - p - 1), min_size=1, max_size=3, unique=True)
        )))
        m_grid = tuple(sorted(data.draw(
            st.lists(st.integers(1, 6), min_size=1, max_size=6, unique=True)
        )))
        assert_matches_oracle(y, l_grid, m_grid, max(l_grid) + 1, p, stride)

    def test_matches_oracle_near_vertical(self):
        # nu^2 reaches 0.99997 here, which magnifies any difference in the
        # recurrence weights to 1e-12 in the objective
        y = structured_series(40, seed=0, noise=0.2)
        assert_matches_oracle(y, (5,), (4,), w0=6, p=1, stride=1)

    def test_matches_oracle_on_bench_shape(self):
        # 100 points, the default window grid (20, 25, 34, 50), m = 1..8,
        # p = 12: the first fit at l = 50 has k = 2, so m > 4 is short of rank
        y = structured_series(100, seed=11, noise=0.3)
        res = assert_matches_oracle(
            y, default_l_grid(100), tuple(range(1, 9)), w0=51, p=12, stride=1
        )
        assert {(50, m) for m in range(5, 9)} <= res.failed
        assert set(res.failure_reasons.values()) == {"rank"}

    def test_default_grids_run(self):
        y = structured_series(60, seed=3, noise=0.2)
        res = select_params_oos(y, p=6, stride=4)
        assert res.window in res.l_grid and res.m in res.m_grid
        assert res.l_grid == default_l_grid(60)
        assert res.m_grid == tuple(range(1, 9))
        assert res.w0 == max(res.l_grid) + 1
        assert len(res.objective) == len(res.l_grid) * len(res.m_grid)

    def test_validation(self):
        y = structured_series(40, seed=4)
        with pytest.raises(ParameterError):
            select_params_oos(y, p=0)
        with pytest.raises(ParameterError):
            select_params_oos(y, stride=0)
        with pytest.raises(ParameterError):
            select_params_oos(y, l_grid=(10,), w0=10, p=5)
        with pytest.raises(ParameterError):
            select_params_oos(y, l_grid=(10,), w0=38, p=5)
        with pytest.raises(ParameterError):
            select_params_oos(y, l_grid=(1,), p=5)
        with pytest.raises(ParameterError):
            select_params_oos(y, m_grid=(0,), p=5)
