import math

import numpy as np
import pytest

from ivssa import (
    DegenerateSpectrumError,
    IntervalSeries,
    ParameterError,
    ShapeError,
    decompose,
    decompose_stacked,
    ks_critical_value,
    periodogram,
    phi_arrays,
    select_from_decomposition,
)
from ivssa.simulation import METHODS, ScenarioConfig, _fits, simulate_scenario
from helpers import (
    assert_compares_by_identity,
    decompose_and_select,
    long_shaped,
    make_rng,
    random_series,
    structured_series,
    weekly_shaped,
)
from oracles import periodogram_loop, residual_whiteness, select_loop


def white_noise_series(seed: int, n: int) -> IntervalSeries:
    rng = make_rng(seed)
    lo = rng.standard_normal(n)
    hi = lo + rng.uniform(0.1, 1.0, size=n)
    return IntervalSeries(lo, hi)


class TestKsCriticalValue:
    def test_printed_value(self):
        assert ks_critical_value(0.05) == pytest.approx(1.358, abs=5e-4)

    def test_closed_form(self):
        for alpha in (0.01, 0.05, 0.10):
            assert ks_critical_value(alpha) == pytest.approx(
                math.sqrt(-0.5 * math.log(alpha / 2.0)), rel=1e-15
            )

    def test_monotone(self):
        assert ks_critical_value(0.01) > ks_critical_value(0.05) > ks_critical_value(0.2)

    def test_domain(self):
        for alpha in (0.0, 1.0, -0.1):
            with pytest.raises(ParameterError):
                ks_critical_value(alpha)


class TestPeriodogram:
    def test_result_compares_by_identity(self):
        e = white_noise_series(3, 40)
        assert_compares_by_identity(lambda: periodogram(e))

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 40, 41])
    def test_matches_loop_oracle(self, n):
        e = white_noise_series(3, n)
        pg = periodogram(e)
        freqs, ords, cum, ks = periodogram_loop(e.lo, e.hi)
        assert pg.j_count == (n - 1) // 2
        assert pg.n_clipped == 0
        assert np.allclose(pg.frequencies, freqs, rtol=1e-14)
        assert np.allclose(pg.ordinates, ords, rtol=1e-10, atol=1e-12)
        assert np.allclose(pg.cumulative, cum, rtol=1e-10, atol=1e-12)
        assert pg.ks_stat == pytest.approx(ks, rel=1e-10, abs=1e-12)

    def test_nonnegative_and_normalized(self):
        for seed in range(5):
            e = white_noise_series(10 + seed, 64)
            pg = periodogram(e)
            assert np.all(pg.ordinates >= 0.0)
            assert pg.cumulative[-1] == pytest.approx(1.0, abs=1e-12)
            assert np.all(np.diff(pg.cumulative) >= -1e-15)

    def test_shift_invariance(self):
        # the DFT of a constant vanishes at every ordinate j >= 1
        e = white_noise_series(20, 50)
        shifted = IntervalSeries(e.lo + 100.0, e.hi + 100.0)
        pg = periodogram(shifted)
        ref = periodogram(e)
        assert pg.ks_stat == pytest.approx(ref.ks_stat, abs=1e-6)

    def test_zero_series_degenerate(self):
        e = IntervalSeries(np.zeros(12), np.zeros(12))
        with pytest.raises(DegenerateSpectrumError):
            periodogram(e)

    def test_too_short(self):
        e = IntervalSeries(np.ones(3), np.ones(3))
        with pytest.raises(ParameterError):
            periodogram(e)

    def test_pure_cosine_concentrates_power(self):
        n = 64
        t = np.arange(1, n + 1)
        vals = np.cos(2 * np.pi * 8 * t / n)
        e = IntervalSeries(vals, vals.copy())
        pg = periodogram(e)
        peak = int(np.argmax(pg.ordinates))
        assert peak == 7  # frequency index j = 8
        assert pg.ordinates[peak] > 10 * np.median(pg.ordinates)


class TestResidualWhiteness:
    def test_statistic_is_the_periodogram_statistic(self):
        # the scan tests the residual arrays directly, with no series object,
        # and must give periodogram's statistic on the same residuals
        y = structured_series(80, seed=4, noise=0.3)
        dec = decompose(y, 20)
        crit = ks_critical_value(0.05)
        for m in range(1, 6):
            ca, cb = dec.component_channels(range(1, m + 1))
            lo, hi = phi_arrays(ca.sum(axis=0), cb.sum(axis=0))
            ks, accepted, perfect = residual_whiteness(y, lo, hi, crit)
            want = periodogram(IntervalSeries(*phi_arrays(y.lo - lo, y.hi - hi))).ks_stat
            assert ks == want and accepted == (want <= crit) and not perfect

    def test_constant_residual_is_a_perfect_fit(self):
        # a nonzero constant residual has no power at the Fourier
        # frequencies j >= 1, so its spectrum is degenerate
        with pytest.raises(DegenerateSpectrumError, match="zero total power"):
            periodogram(IntervalSeries(np.ones(40), np.ones(40)))
        lo = np.arange(40.0)
        y = IntervalSeries(lo, lo + 2.0)
        ks, accepted, perfect = residual_whiteness(y, lo - 1.0, lo + 1.0, 1.358)
        assert math.isnan(ks) and accepted and perfect

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_short_perfect_fit_is_not_refused(self, n):
        # zero residuals pass the rms test before any periodogram of n < 4
        y = IntervalSeries(np.arange(n, dtype=float), np.arange(n) + 1.0)
        ks, accepted, perfect = residual_whiteness(y, y.lo, y.hi, 1.358)
        assert math.isnan(ks) and accepted and perfect

    def test_short_residuals_rejected(self):
        y = IntervalSeries(np.array([0.0, 1.0, 0.5]), np.array([1.0, 2.0, 2.5]))
        with pytest.raises(ParameterError, match="periodogram needs n >= 4"):
            residual_whiteness(y, np.zeros(3), np.zeros(3), 1.358)


class TestSelection:
    def test_white_noise_accepts_early(self):
        accepted_at_one = 0
        for seed in range(10):
            e = white_noise_series(100 + seed, 120)
            sel = decompose_and_select(e, window=30)
            assert sel.converged
            if sel.m == 1:
                accepted_at_one += 1
        assert accepted_at_one >= 8

    def test_structured_series_needs_trend_components(self):
        y = structured_series(144, seed=5, noise=0.2)
        sel = decompose_and_select(y)
        assert sel.converged
        assert 2 <= sel.m <= 6
        assert sel.ks_trace[0] > sel.critical_value

    def test_noise_free_finite_rank_selects_rank(self):
        # trend + cycle with constant width: trajectory rank 4
        n = 96
        t = np.arange(1, n + 1)
        mid = 5 + 0.1 * t + np.sin(2 * np.pi * t / 16)
        y = IntervalSeries(mid - 1, mid + 1)
        dec = decompose(y)
        assert dec.d == 4
        sel = decompose_and_select(y)
        assert sel.m == 4
        assert sel.converged and sel.perfect_fit
        assert math.isnan(sel.ks_trace[-1])

    def test_trace_and_critical_value(self):
        y = structured_series(100, seed=6, noise=0.3)
        sel = decompose_and_select(y, alpha=0.05)
        assert sel.critical_value == pytest.approx(ks_critical_value(0.05))
        assert len(sel.ks_trace) == sel.m
        assert all(v > sel.critical_value for v in sel.ks_trace[:-1])
        assert sel.ks_trace[-1] <= sel.critical_value

    def test_scan_stops_at_the_rank(self):
        # a coarse rank cutoff leaves d = 1, below the sine pair: the scan
        # ends at d, unconverged, after one statistic
        t = np.arange(120)
        noise = np.random.default_rng(3).normal(0.0, 0.3, t.size)
        mid = 5.0 + 3.0 * np.sin(2 * np.pi * t / 12.0) + noise
        y = IntervalSeries(mid - 0.5, mid + 0.5)
        dec = decompose(y, rank_eps=0.2)
        sel = select_from_decomposition(dec, y)
        assert dec.d == 1
        assert (sel.m, sel.converged) == (1, False)
        assert len(sel.ks_trace) == 1
        assert sel.ks_trace[0] == pytest.approx(6.22, abs=5e-3)

    def test_max_m_caps_scan(self):
        y = structured_series(100, seed=7, noise=0.0)
        # noise-free series: KS never passes on deterministic residual cycles
        sel = decompose_and_select(y, max_m=2)
        assert sel.m <= 2
        assert len(sel.ks_trace) <= 2

    def test_max_m_below_one_rejected(self):
        y = structured_series(100, seed=7, noise=0.0)
        for bad in (0, -3):
            with pytest.raises(ParameterError, match=f"got {bad}"):
                decompose_and_select(y, max_m=bad)

    def test_non_integral_max_m_rejected(self):
        # truncating would scan to 2
        y = structured_series(100, seed=7, noise=0.0)
        dec = decompose(y)
        with pytest.raises(ParameterError, match="max_m must be an integer, got 2.5"):
            select_from_decomposition(dec, y, max_m=2.5)
        want = select_from_decomposition(dec, y, max_m=2)
        with pytest.raises(ParameterError, match="max_m must be >= 1, got 0.0"):
            select_from_decomposition(dec, y, max_m=0.0)
        for cap in (2.0, np.int64(2)):
            got = select_from_decomposition(dec, y, max_m=cap)
            assert (got.m, got.ks_trace) == (want.m, want.ks_trace)

    def test_alpha_orders_acceptance(self):
        # smaller alpha raises the critical value, so whiteness is accepted
        # no later than under a larger alpha
        y = structured_series(128, seed=8, noise=0.25)
        small = decompose_and_select(y, alpha=0.001)
        large = decompose_and_select(y, alpha=0.2)
        assert small.m <= large.m
        assert small.critical_value > large.critical_value

    def test_per_series_selection_on_stacked(self):
        rng = make_rng(9)
        xs = [structured_series(90, seed=10, noise=0.2),
              random_series(rng, 90)]
        dec = decompose_stacked(xs)
        s1 = select_from_decomposition(dec, xs[0], series_index=1)
        s2 = select_from_decomposition(dec, xs[1], series_index=2)
        assert s1.converged and s2.converged
        with pytest.raises(ParameterError):
            select_from_decomposition(dec, xs[0], series_index=3)

    def test_series_length_check(self):
        y = structured_series(50, seed=11)
        dec = decompose(y)
        with pytest.raises(ShapeError):
            select_from_decomposition(dec, IntervalSeries(y.lo[:40], y.hi[:40]))


def assert_same_selection(got, want):
    assert (got.m, got.converged, got.perfect_fit) == (want.m, want.converged, want.perfect_fit)
    assert (got.alpha, got.critical_value) == (want.alpha, want.critical_value)
    assert np.array(got.ks_trace).tobytes() == np.array(want.ks_trace).tobytes()


class TestBlockScan:
    """The scan tests blocks of 1, 2, 4, ... prefixes at a time and must
    give the per-step loop's result bit for bit, NaN included."""

    @pytest.mark.parametrize("seed", range(6))
    def test_weekly_shaped(self, seed):
        y = weekly_shaped(400, seed)
        want = select_loop(decompose(y), y)
        assert want.m > 7  # the scan runs several blocks
        assert_same_selection(select_from_decomposition(decompose(y), y), want)

    @pytest.mark.parametrize("seed", [0, 1, 5])
    def test_long_shaped_solves_as_the_loop(self, seed):
        # seed 5 reads past the gap block, the others stop within it
        y = long_shaped(1000, seed)
        dec, ref = decompose(y), decompose(y)
        got, want = select_from_decomposition(dec, y), select_loop(ref, y)
        assert_same_selection(got, want)
        j = dec.eig._known.shape[1]
        assert ("_solved" in vars(dec.eig)) == ("_solved" in vars(ref.eig))
        if got.m <= j:
            assert "_solved" not in vars(dec.eig)
        assert (seed == 5) == (got.m > j)

    @pytest.mark.parametrize("scenario", ["A", "B"])
    def test_monte_carlo_fits(self, scenario):
        for seed in range(3):
            data = simulate_scenario(ScenarioConfig.from_name(scenario, 100, seed))
            for method in METHODS:
                for (dec, s), y in zip(_fits(method, data), (data.x, data.y)):
                    want = select_loop(dec, y, series_index=s)
                    assert_same_selection(select_from_decomposition(dec, y, series_index=s), want)

    def test_perfect_fit_inside_a_block(self):
        # trend and two cycles, constant width: rank 6, a perfect fit at
        # the third prefix of the block 4..7
        t = np.arange(1, 97)
        mid = 5 + 0.1 * t + np.sin(2 * np.pi * t / 16) + 0.5 * np.sin(2 * np.pi * t / 7)
        y = IntervalSeries(mid - 1, mid + 1)
        got = select_from_decomposition(decompose(y), y)
        assert (got.m, got.perfect_fit) == (6, True)
        assert_same_selection(got, select_loop(decompose(y), y))

    @pytest.mark.parametrize("max_m", range(1, 8))
    def test_cap_cuts_a_block(self, max_m):
        y = weekly_shaped(200, 3)
        dec = decompose(y)
        got = select_from_decomposition(dec, y, max_m=max_m)
        assert (got.m, got.converged) == (max_m, False)
        assert_same_selection(got, select_loop(dec, y, max_m=max_m))

    def test_rank_stop_inside_a_block(self):
        t = np.arange(120.0)
        cycles = ((12, 3), (7, 2), (5, 1.5), (3.3, 1))
        mid = 5 + sum(a * np.sin(2 * np.pi * t / p) for p, a in cycles)
        y = IntervalSeries(mid - 0.5, mid + 0.5)
        dec = decompose(y, rank_eps=0.03)
        got = select_from_decomposition(dec, y)
        assert (dec.d, got.m, got.converged) == (5, 5, False)
        assert_same_selection(got, select_loop(decompose(y, rank_eps=0.03), y))

    def test_three_values(self):
        # a fit that is not perfect reaches the periodogram of 3 values
        y = IntervalSeries(np.array([0.0, 1.0, 0.5]), np.array([1.0, 2.0, 2.5]))
        for scan in (select_from_decomposition, select_loop):
            with pytest.raises(ParameterError, match=r"^periodogram needs n >= 4, got 3$"):
                scan(decompose(y), y)
        # a perfect first prefix stops the scan before any periodogram
        y = IntervalSeries(np.full(3, 2.0), np.full(3, 3.0))
        got = select_from_decomposition(decompose(y), y)
        assert (got.m, got.perfect_fit) == (1, True)
        assert_same_selection(got, select_loop(decompose(y), y))
