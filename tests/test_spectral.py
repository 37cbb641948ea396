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
    interval_residuals,
    ks_critical_value,
    periodogram,
    select_components,
    select_from_decomposition,
)
from helpers import make_rng, random_series, structured_series
from oracles import periodogram_loop


def white_noise_series(seed: int, n: int) -> IntervalSeries:
    rng = make_rng(seed)
    lo = rng.standard_normal(n)
    hi = lo + rng.uniform(0.1, 1.0, size=n)
    return IntervalSeries(lo, hi)


class TestIntervalResiduals:
    def test_phi_of_endpoint_differences(self):
        y = IntervalSeries([0.0, 1.0], [2.0, 3.0])
        yt = IntervalSeries([1.0, 0.5], [1.5, 3.5])
        e = interval_residuals(y, yt)
        # first: (0-1, 2-1.5) = (-1, 0.5); second: (0.5, -0.5) reordered
        assert (e[0].lo, e[0].hi) == (-1.0, 0.5)
        assert (e[1].lo, e[1].hi) == (-0.5, 0.5)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            interval_residuals(
                IntervalSeries([0.0], [1.0]), IntervalSeries([0.0, 1.0], [1.0, 2.0])
            )


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


class TestSelection:
    def test_white_noise_accepts_early(self):
        accepted_at_one = 0
        for seed in range(10):
            e = white_noise_series(100 + seed, 120)
            sel = select_components(e, window=30)
            assert sel.converged
            if sel.m == 1:
                accepted_at_one += 1
        assert accepted_at_one >= 8

    def test_structured_series_needs_trend_components(self):
        y = structured_series(144, seed=5, noise=0.2)
        sel = select_components(y)
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
        sel = select_components(y)
        assert sel.m == 4
        assert sel.converged and sel.perfect_fit
        assert math.isnan(sel.ks_trace[-1])

    def test_trace_and_critical_value(self):
        y = structured_series(100, seed=6, noise=0.3)
        sel = select_components(y, alpha=0.05)
        assert sel.critical_value == pytest.approx(ks_critical_value(0.05))
        assert len(sel.ks_trace) == sel.m
        assert all(v > sel.critical_value for v in sel.ks_trace[:-1])
        assert sel.ks_trace[-1] <= sel.critical_value

    def test_max_m_caps_scan(self):
        y = structured_series(100, seed=7, noise=0.0)
        # noise-free series: KS never passes on deterministic residual cycles
        sel = select_components(y, max_m=2)
        assert sel.m <= 2
        assert len(sel.ks_trace) <= 2

    def test_max_m_below_one_rejected(self):
        y = structured_series(100, seed=7, noise=0.0)
        for bad in (0, -3):
            with pytest.raises(ParameterError, match=f"got {bad}"):
                select_components(y, max_m=bad)

    def test_alpha_orders_acceptance(self):
        # smaller alpha raises the critical value, so whiteness is accepted
        # no later than under a larger alpha
        y = structured_series(128, seed=8, noise=0.25)
        small = select_components(y, alpha=0.001)
        large = select_components(y, alpha=0.2)
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
            select_from_decomposition(dec, y[:40])
