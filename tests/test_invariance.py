"""Negation invariance of the whole pipeline, bit for bit.

Negation maps y to [-hi, -lo]: the mid channel of every interval flips sign
and the radius does not.  S = C C' + R R'/3 is then the same matrix bit for
bit, and every later step is sign-symmetric, so the eigenvalues, d, the
selected m, the KS trace, the recurrence weights and the grid search's
objective table keep their bits, while components, trendlines and
forecasts map as (a, b) -> (-b, -a).
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ivssa import (
    Grouping,
    IntervalSeries,
    IvssaError,
    StackingMode,
    decompose,
    decompose_stacked,
    forecast_recurrent,
    recurrence_coefficients,
    select_from_decomposition,
    select_params_oos,
    trendline,
)
from helpers import (
    long_shaped,
    make_rng,
    random_series,
    structured_series,
    weekly_shaped,
)

SHAPES = {
    "random": lambda n, seed: random_series(make_rng(seed), n),
    "structured": lambda n, seed: structured_series(n, seed, noise=0.3),
    "weekly": weekly_shaped,
    "long": long_shaped,
}

HORIZON = 8


def negated(y: IntervalSeries) -> IntervalSeries:
    return IntervalSeries(-y.hi, -y.lo)


def same_bits(got, want) -> bool:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def assert_negated(got: IntervalSeries, want: IntervalSeries) -> None:
    assert same_bits(got.lo, -want.hi) and same_bits(got.hi, -want.lo)


seeds = st.integers(0, 2**32 - 1)


@st.composite
def series(draw, max_n: int) -> IntervalSeries:
    n = draw(st.integers(20, max_n))
    return SHAPES[draw(st.sampled_from(sorted(SHAPES)))](n, draw(seeds))


@st.composite
def series_and_window(draw, max_n: int) -> tuple[IntervalSeries, int | None]:
    y = draw(series(max_n))
    return y, draw(st.one_of(st.none(), st.integers(2, len(y) // 2)))


def forecast(dec, group: Grouping, trend: IntervalSeries):
    coef = recurrence_coefficients(dec.eig, group)
    return coef, forecast_recurrent(trend, coef, HORIZON).values


def assert_fit_negates(dec, neg, ys, top: int) -> None:
    """Selection, components, trendline, recurrence and forecast of each
    series of dec, against those of neg, the fit of the negated series.
    Components are read up to top, within the known leading block."""
    for s, y in enumerate(ys, start=1):
        sel = select_from_decomposition(dec, y, series_index=s)
        got = select_from_decomposition(neg, negated(y), series_index=s)
        assert (got.m, got.converged, got.perfect_fit) == (sel.m, sel.converged, sel.perfect_fit)
        assert same_bits(got.ks_trace, sel.ks_trace)
        k = range(1, min(top, dec.eig.reach(1)) + 1)
        ca, cb = dec.component_channels(k, s)
        na, nb = neg.component_channels(k, s)
        assert same_bits(na, -cb) and same_bits(nb, -ca)
        group = Grouping.leading(sel.m)
        trend, neg_trend = trendline(dec, group)[s - 1], trendline(neg, group)[s - 1]
        assert_negated(neg_trend, trend)
        try:
            coef, values = forecast(dec, group, trend)
        except IvssaError as exc:  # a vertical eigenspace, or too short a trendline
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                forecast(neg, group, neg_trend)
            continue
        neg_coef, neg_values = forecast(neg, group, neg_trend)
        assert same_bits(neg_coef.alpha, coef.alpha)
        assert same_bits(neg_coef.verticality, coef.verticality)
        assert_negated(neg_values, values)


def assert_spectrum_same(dec, neg) -> None:
    assert dec.d == neg.d
    assert same_bits(neg.eig.values, dec.eig.values)


class TestNegation:
    @settings(max_examples=30)
    @given(series_and_window(max_n=399))
    def test_univariate(self, case):
        y, window = case
        dec, neg = decompose(y, window), decompose(negated(y), window)
        assert_spectrum_same(dec, neg)
        assert_fit_negates(dec, neg, [y], top=12)

    @settings(max_examples=15)
    @given(
        series_and_window(max_n=199),
        seeds,
        st.sampled_from([StackingMode.VERTICAL, StackingMode.HORIZONTAL]),
    )
    def test_stacked(self, case, seed, mode):
        x, window = case
        ys = [x, random_series(make_rng(seed), len(x))]
        dec = decompose_stacked(ys, window, mode)
        neg = decompose_stacked([negated(y) for y in ys], window, mode)
        assert_spectrum_same(dec, neg)
        assert_fit_negates(dec, neg, ys, top=12)

    @settings(max_examples=8)
    @given(series(max_n=60))
    def test_grid_search(self, y):
        args = dict(m_grid=(1, 2, 3, 4), p=4, stride=3)
        want = select_params_oos(y, **args)
        got = select_params_oos(negated(y), **args)
        assert (got.window, got.m) == (want.window, want.m)
        assert got.failure_reasons == want.failure_reasons
        assert list(got.objective) == list(want.objective)
        assert same_bits(list(got.objective.values()), list(want.objective.values()))

    def test_large_fit(self):
        # l = 501: the gap block's FFT and direct passes, then the complete
        # solve that reading d and the values forms last
        y = long_shaped(1000, seed=11)
        dec, neg = decompose(y), decompose(negated(y))
        assert dec.window == 501 and dec.eig._z is not None and neg.eig._z is not None
        assert same_bits(neg.eig.leading(3), dec.eig.leading(3))
        assert_fit_negates(dec, neg, [y], top=3)
        assert_spectrum_same(dec, neg)
