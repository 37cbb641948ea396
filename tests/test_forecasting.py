import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ivssa import (
    EigenPairs,
    Grouping,
    IntervalSeries,
    InvalidValueError,
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
from ivssa.core import symbolic_channels
from ivssa.decomposition import DEFAULT_RANK_EPS, _checked_eigh, _symmetric_product
from ivssa.embedding import StackingMode, _embed
from ivssa import forecasting
from ivssa.forecasting import (
    _alpha,
    _oos_window,
    _prefix_weights,
    _recurrence,
    _run_recurrence,
    _trend_tails,
)
from helpers import assert_compares_by_identity, make_rng, structured_series
from oracles import forecast_loop, oos_objective_loop, oos_window_loop


def prefix_covariance(y: IntervalSeries, window: int, w: int) -> np.ndarray:
    """S of the prefix y[:w], embedded as the grid search embeds it."""
    c, r = symbolic_channels(y.lo, y.hi)
    return _symmetric_product(_embed([(c[:w], r[:w])], window, StackingMode.UNIVARIATE))


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
            # ... and so must the batched window's weights of every leading
            # m, read from prefix sums over its stacked eigensolve
            s = prefix_covariance(y, 5, w)
            _, vectors, _ = _checked_eigh(np.stack([s, s]), DEFAULT_RANK_EPS)
            pp, nu2 = _prefix_weights(vectors[:, :, :5])
            for m in range(1, 5):
                alpha = _alpha(pp[1, :, m - 1], nu2[1, m - 1])
                want = recurrence_coefficients(eig, Grouping.leading(m)).alpha
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
        with pytest.raises(ParameterError, match="horizon must be >= 1, got 0"):
            forecast_recurrent(trend, coef, 0)
        with pytest.raises(ParameterError, match="horizon must be an integer, got 2.5"):
            forecast_recurrent(trend, coef, 2.5)
        with pytest.raises(ParameterError):
            forecast_recurrent(trend, coef, 3)
        trend = IntervalSeries([1.0, 2.0], [1.0, 3.0])
        want = forecast_recurrent(trend, coef, 3)
        for horizon in (3.0, np.int64(3)):
            got = forecast_recurrent(trend, coef, horizon)
            assert got.values == want.values and type(got.horizon) is int


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

    @pytest.mark.parametrize(
        "scale, message",
        [(1e160, "non-finite entries"), (1e-200, "underflows")],
        ids=["overflow", "underflow"],
    )
    def test_numeric_failure_named(self, scale, message):
        y = structured_series(60, seed=12, noise=0.3)
        with pytest.raises(InvalidValueError, match=message):
            select_params_oos(IntervalSeries(y.lo * scale, y.hi * scale))

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
        with pytest.raises(ParameterError, match="horizon p must be >= 1, got 0"):
            select_params_oos(y, p=0)
        with pytest.raises(ParameterError, match="stride must be >= 1, got 0"):
            select_params_oos(y, stride=0)
        with pytest.raises(ParameterError, match="w0 must be >= 11, got 10"):
            select_params_oos(y, l_grid=(10,), w0=10, p=5)
        with pytest.raises(ParameterError):
            select_params_oos(y, l_grid=(10,), w0=38, p=5)
        with pytest.raises(ParameterError, match="window grid entry must be >= 2, got 1"):
            select_params_oos(y, l_grid=(1,), p=5)
        with pytest.raises(ParameterError, match="m grid entry must be >= 1, got 0"):
            select_params_oos(y, m_grid=(0,), p=5)
        with pytest.raises(ParameterError, match="must not be empty"):
            select_params_oos(y, m_grid=(), p=5)
        # non-integral sizes name their parameter instead of a TypeError
        with pytest.raises(ParameterError, match="horizon p must be an integer, got 5.5"):
            select_params_oos(y, p=5.5)
        with pytest.raises(ParameterError, match="stride must be an integer, got 2.5"):
            select_params_oos(y, l_grid=(10,), stride=2.5, p=5)
        with pytest.raises(ParameterError, match="w0 must be an integer, got 30.5"):
            select_params_oos(y, l_grid=(10,), w0=30.5, p=5)
        # an int beyond float range is compared as an int
        with pytest.raises(ParameterError, match="exceeds n = 40"):
            select_params_oos(y, l_grid=(10,), p=10**400)
        with pytest.raises(ParameterError, match="exceeds n = 40"):
            select_params_oos(y, l_grid=(10,), w0=10**400, p=5)
        # non-integral grid entries are rejected, not truncated (10.5 -> 10)
        with pytest.raises(ParameterError, match="window grid entry must be an integer, got 10.5"):
            select_params_oos(y, l_grid=(8, 10.5), p=5)
        with pytest.raises(ParameterError, match="m grid entry must be an integer, got 2.5"):
            select_params_oos(y, m_grid=(1, 2.5), p=5)

    def test_integral_grid_types_accepted(self):
        y = structured_series(40, seed=4)
        want = select_params_oos(y, l_grid=(8, 10), m_grid=(1, 2), p=5)
        got = select_params_oos(y, l_grid=(8.0, np.int64(10)), m_grid=(1.0, np.int32(2)), p=5)
        assert got.l_grid == want.l_grid and got.m_grid == want.m_grid
        assert all(type(v) is int for v in got.l_grid + got.m_grid)
        assert (got.window, got.m) == (want.window, want.m)
        assert np.array_equal(got.objective, want.objective)
        want = select_params_oos(y, l_grid=(10,), w0=30, p=5, stride=2)
        got = select_params_oos(y, l_grid=(10,), w0=30.0, p=np.int64(5), stride=2.0)
        assert (got.w0, got.p, got.stride) == (30, 5, 2)
        assert all(type(v) is int for v in (got.w0, got.p, got.stride))
        assert got.objective == want.objective


def window_args(y, window, w0, p, stride, m_grid):
    """The task tuple ``select_params_oos`` hands to ``_oos_window``."""
    fits = list(range(w0, len(y) - p + 1, stride))
    return (y.lo, y.hi, window, fits, tuple(m_grid), p, DEFAULT_RANK_EPS)


def assert_window_matches_loop(args):
    """Same inf positions, finite errors within rel 1e-12 and the same
    first failure reasons as the per-fit window of ``oos_window_loop``."""
    got, got_reasons = _oos_window(args)
    want, want_reasons = oos_window_loop(args)
    assert got_reasons == want_reasons
    np.testing.assert_array_equal(np.isinf(got), np.isinf(want))
    finite = np.isfinite(want)
    np.testing.assert_allclose(got[finite], want[finite], rtol=1e-12, atol=0)
    return got, got_reasons


class TestOosWindow:
    """The batched window task against the per-fit loop it replaced."""

    def test_first_fits_short_of_columns(self):
        # l = 50 from w0 = 51: k = 2 < l-1 for the first fits, whose rank
        # d <= 2k makes m > 4 short of rank
        y = structured_series(100, seed=11, noise=0.3)
        args = window_args(y, 50, 51, 12, 1, range(1, 9))
        errors, reasons = assert_window_matches_loop(args)
        assert reasons == {m: "rank" for m in range(5, 9)}
        assert np.isfinite(errors[:, :4]).all()

    @pytest.mark.parametrize("w0, want", [(8, "vertical"), (7, "rank")])
    def test_vertical_series(self, w0, want):
        y = TestSelectParamsOos.vertical_series()
        _, reasons = assert_window_matches_loop(window_args(y, 5, w0, 3, 1, (1, 5, 6)))
        assert reasons == {5: want, 6: "rank"}

    def test_near_vertical(self):
        y = structured_series(40, seed=0, noise=0.2)
        assert_window_matches_loop(window_args(y, 5, 6, 1, 1, (4,)))

    @pytest.mark.parametrize("window", [30, 120])
    def test_chunks_match_one_batch(self, window, monkeypatch):
        # a budget of three matrices cuts the window's fits into chunks
        y = structured_series(2 * window + 30, seed=5, noise=0.3)
        args = window_args(y, window, window + 1, 12, 1, range(1, 9))
        monkeypatch.setattr(forecasting, "_CHUNK_BYTES", 1 << 40)
        whole, whole_reasons = _oos_window(args)
        monkeypatch.setattr(forecasting, "_CHUNK_BYTES", 3 * 8 * window**2)
        got, reasons = assert_window_matches_loop(args)
        assert reasons == whole_reasons
        np.testing.assert_array_equal(got, whole)

    @pytest.mark.parametrize(
        "scale, match", [(1e160, "non-finite entries"), (1e-200, "underflows")]
    )
    def test_chunked_failure_is_the_first_fits(self, scale, match, monkeypatch):
        # the values from t = 40 on make the fits from w = 41 fail: the last
        # fit of the fifth chunk of three, after two that pass.  The loop
        # raises the same error on that fit
        y = structured_series(60, seed=2, noise=0.3)
        lo, hi = y.lo.copy(), y.hi.copy()
        lo[:40] = hi[:40] = 0.0
        lo[40:] *= scale
        hi[40:] *= scale
        args = (lo, hi, 5, list(range(27, 50)), (1, 2), 3, DEFAULT_RANK_EPS)
        monkeypatch.setattr(forecasting, "_CHUNK_BYTES", 3 * 8 * 5**2)
        with pytest.raises(InvalidValueError, match=match) as got:
            _oos_window(args)
        with pytest.raises(InvalidValueError) as want:
            oos_window_loop(args)
        assert str(got.value) == str(want.value)

    @settings(max_examples=40)
    @given(
        kind=st.sampled_from(["structured", "vertical"]),
        seed=st.integers(0, 2**16),
        noise=st.sampled_from([0.0, 0.2, 1.0]),
        data=st.data(),
    )
    def test_matches_loop_property(self, kind, seed, noise, data):
        if kind == "vertical":
            y = TestSelectParamsOos.vertical_series()
            p = data.draw(st.integers(1, 3))
        else:
            y = structured_series(data.draw(st.integers(24, 70)), seed=seed, noise=noise)
            p = data.draw(st.integers(1, 6))
        n = len(y)
        window = data.draw(st.integers(2, n - p - 1))
        # w0 near the window leaves the first fits with k < l-1 columns
        w0 = data.draw(st.integers(window + 1, min(n - p, 2 * window + 2)))
        stride = data.draw(st.integers(1, 3))
        m_grid = sorted(data.draw(st.sets(st.integers(1, 8), min_size=1, max_size=8)))
        assert_window_matches_loop(window_args(y, window, w0, p, stride, m_grid))


class TestTrendTails:
    @pytest.mark.parametrize("window", [5, 20, 50])
    def test_tails_match_component_channels(self, window):
        # fit lengths from k = 2 < l-1 columns up to k > l-1
        y = structured_series(100, seed=11, noise=0.3)
        fits = np.array([window + 1, window + 2, window + 9, 2 * window, 99])
        s = np.array([prefix_covariance(y, window, w) for w in fits])
        _, vectors, d = _checked_eigh(s, DEFAULT_RANK_EPS)
        top = np.minimum(d, 6)
        c, r = symbolic_channels(y.lo, y.hi)
        trend_lo, trend_hi = _trend_tails(c, r, fits, vectors, d, top)
        for f, w in enumerate(fits):
            dec = decompose(IntervalSeries(y.lo[:w], y.hi[:w]), window)
            assert dec.d == d[f]
            m = top[f]
            ca, cb = dec.component_channels(range(1, m + 1))
            want_lo = np.minimum(np.cumsum(ca, axis=0), np.cumsum(cb, axis=0))
            want_hi = np.maximum(np.cumsum(ca, axis=0), np.cumsum(cb, axis=0))
            # the same operations in the same order: equal, not just close
            np.testing.assert_array_equal(trend_lo[f, :m], want_lo[:, 1 - window :])
            np.testing.assert_array_equal(trend_hi[f, :m], want_hi[:, 1 - window :])
