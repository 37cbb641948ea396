"""Residual periodogram and the targeted-grouping whiteness criterion.

Components are added one at a time until the cumulative periodogram of the
interval residuals passes a Kolmogorov-Smirnov white-noise test.  The
interval autocovariance weighs endpoint lag products 2:1:1:2, which in the
channels of ``symbolic_channels`` is the sum of the mid channel's and the
radius/sqrt(3) channel's real autocovariances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DegenerateSpectrumError,
    IntervalSeries,
    ParameterError,
    ShapeError,
    phi_arrays,
    symbolic_channels,
)
from .decomposition import Decomposition, decompose

#: Residuals below this fraction of the series scale count as a perfect fit.
PERFECT_FIT_RTOL = 1e-10

#: Default cap on the number of components scanned by the selection loop.
DEFAULT_MAX_M = 40


def interval_residuals(y: IntervalSeries, ytilde: IntervalSeries) -> IntervalSeries:
    """Interval residuals e_t = phi(lo_t - lo~_t, hi_t - hi~_t)."""
    if len(y) != len(ytilde):
        raise ShapeError(
            f"series lengths differ: {len(y)} vs {len(ytilde)}"
        )
    lo, hi = phi_arrays(y.lo - ytilde.lo, y.hi - ytilde.hi)
    return IntervalSeries(lo, hi)


def _lag_products(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """c(h) = sum_t x_t y_{t+h} for h = 0..n-1."""
    n = x.size
    return np.correlate(y, x, "full")[n - 1 :]


def _autocov_all(e: IntervalSeries, center: bool = False) -> np.ndarray:
    """Interval autocovariance for every lag h = 0..n-1.

    The printed estimator has no mean correction; ``center=True`` subtracts
    each channel's mean first.
    """
    mid, rad = symbolic_channels(e.lo, e.hi)
    if center:
        mid = mid - mid.mean()
        rad = rad - rad.mean()
    return (_lag_products(mid, mid) + _lag_products(rad, rad)) / mid.size


def autocov(e: IntervalSeries, h: int, center: bool = False) -> float:
    """Interval autocovariance at lag h, weighting endpoint products 2:1:1:2.

    gamma(h) = (1/6n) sum_t [2 lo_t lo_{t+h} + lo_t hi_{t+h} + hi_t lo_{t+h}
    + 2 hi_t hi_{t+h}] = (1/n) sum_t [C_t C_{t+h} + R_t R_{t+h} / 3] with
    mid C and radius R; the symmetric extension gamma(-h) = gamma(h) is used
    by the periodogram.
    """
    n = len(e)
    if not 0 <= h <= n - 1:
        raise ParameterError(f"lag must lie in [0, {n - 1}], got {h}")
    return float(_autocov_all(e, center)[h])


def ks_critical_value(alpha: float) -> float:
    """Asymptotic Kolmogorov-Smirnov critical value; 1.358 at alpha = 0.05."""
    if not 0.0 < alpha < 1.0:
        raise ParameterError(f"alpha must lie in (0, 1), got {alpha}")
    return math.sqrt(-0.5 * math.log(alpha / 2.0))


@dataclass(frozen=True)
class PeriodogramResult:
    """Interval periodogram over the Fourier frequencies 2*pi*j/n, j = 1..J.

    ``cumulative`` is the normalized running sum of the (clipped) ordinates;
    ``ks_stat`` is sqrt(J) * max_j |C(w_j) - j/J|.
    """

    frequencies: np.ndarray
    ordinates: np.ndarray
    cumulative: np.ndarray
    ks_stat: float
    n_clipped: int

    @property
    def j_count(self) -> int:
        return int(self.frequencies.size)


def periodogram(e: IntervalSeries, center: bool = False) -> PeriodogramResult:
    """Spectral plug-in estimator of an interval residual series.

    f(w_j) = (1/2pi) [gamma(0) + 2 sum_h gamma(h) cos(h w_j)] for
    j = 1..floor((n-1)/2).  Ordinates are clipped at zero before cumulation
    (count reported); zero total power raises ``DegenerateSpectrumError``,
    which callers treat as a perfect fit.
    """
    n = len(e)
    if n < 4:
        raise ParameterError(f"periodogram needs n >= 4, got {n}")
    gamma = _autocov_all(e, center=center)
    if gamma[0] == 0.0:
        raise DegenerateSpectrumError("residual series is identically zero")
    j_count = (n - 1) // 2
    j = np.arange(1, j_count + 1)
    freqs = 2.0 * np.pi * j / n
    lags = np.arange(1, n)
    ordinates = (gamma[0] + 2.0 * (np.cos(np.outer(freqs, lags)) @ gamma[1:])) / (
        2.0 * np.pi
    )
    negative = ordinates < 0.0
    n_clipped = int(np.count_nonzero(negative))
    ordinates = np.where(negative, 0.0, ordinates)
    total = float(ordinates.sum())
    if total <= 0.0:
        raise DegenerateSpectrumError("residual spectrum has zero total power")
    cumulative = np.cumsum(ordinates) / total
    ks = float(np.sqrt(j_count) * np.max(np.abs(cumulative - j / j_count)))
    for arr in (freqs, ordinates, cumulative):
        arr.flags.writeable = False
    return PeriodogramResult(
        frequencies=freqs,
        ordinates=ordinates,
        cumulative=cumulative,
        ks_stat=ks,
        n_clipped=n_clipped,
    )


def residual_whiteness(
    y: IntervalSeries,
    trend_lo: np.ndarray,
    trend_hi: np.ndarray,
    critical_value: float,
    center: bool = False,
    scale: float | None = None,
) -> tuple[float, bool, bool]:
    """Test residuals of a candidate trendline for white noise.

    Returns (ks_stat, accepted, perfect_fit); ks_stat is NaN when the fit is
    declared perfect (residuals at float-noise level or a degenerate
    spectrum).
    """
    res_a = y.lo - trend_lo
    res_b = y.hi - trend_hi
    if scale is None:
        scale = float(np.sqrt(np.mean(y.lo**2 + y.hi**2)))
    rms = float(np.sqrt(np.mean(res_a**2 + res_b**2)))
    if rms <= PERFECT_FIT_RTOL * scale:
        return math.nan, True, True
    lo, hi = phi_arrays(res_a, res_b)
    try:
        pg = periodogram(IntervalSeries(lo, hi), center=center)
    except DegenerateSpectrumError:
        return math.nan, True, True
    return pg.ks_stat, pg.ks_stat <= critical_value, False


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of the targeted-grouping scan.

    ``m`` is the first prefix size whose residuals pass the KS whiteness
    test (or the scan cap when ``converged`` is false); ``ks_trace[i]`` is
    the statistic at prefix size i+1 (NaN marks a perfect-fit stop).
    """

    m: int
    converged: bool
    ks_trace: tuple[float, ...]
    alpha: float
    critical_value: float
    perfect_fit: bool = False


def select_from_decomposition(
    dec: Decomposition,
    y: IntervalSeries,
    series_index: int = 1,
    alpha: float = 0.05,
    max_m: int | None = None,
    center: bool = False,
) -> SelectionResult:
    """Targeted-grouping scan against a prebuilt decomposition.

    Scans prefixes I = {1..i}: reconstructs the trendline of the given
    series, tests its residuals, and stops at the first accepted i.
    """
    if dec.d == 0:
        raise ParameterError("decomposition has rank zero; nothing to select")
    if not 1 <= series_index <= dec.n_series:
        raise ParameterError(
            f"series index must lie in [1, {dec.n_series}], got {series_index}"
        )
    if len(y) != dec.series_length:
        raise ShapeError(
            f"series length {len(y)} does not match decomposition length "
            f"{dec.series_length}"
        )
    cap = DEFAULT_MAX_M if max_m is None else int(max_m)
    if cap < 1:
        raise ParameterError(f"max_m must be >= 1, got {max_m}")
    cap = min(cap, dec.d)
    crit = ks_critical_value(alpha)
    scale = float(np.sqrt(np.mean(y.lo**2 + y.hi**2)))
    trace: list[float] = []
    for i in range(1, cap + 1):
        # one component per step, so an early stop skips the rest; summed in
        # the order np.cumsum uses, so prefix i matches every other trendline
        ca, cb = dec.component_channels((i,), series_index)
        ta, tb = (ca[0], cb[0]) if i == 1 else (ta + ca[0], tb + cb[0])
        lo, hi = phi_arrays(ta, tb)
        ks, accepted, perfect = residual_whiteness(
            y, lo, hi, crit, center=center, scale=scale
        )
        trace.append(ks)
        if accepted:
            return SelectionResult(
                m=i,
                converged=True,
                ks_trace=tuple(trace),
                alpha=alpha,
                critical_value=crit,
                perfect_fit=perfect,
            )
    return SelectionResult(
        m=cap,
        converged=False,
        ks_trace=tuple(trace),
        alpha=alpha,
        critical_value=crit,
    )


def select_components(
    y: IntervalSeries,
    window: int | None = None,
    alpha: float = 0.05,
    max_m: int | None = None,
    center: bool = False,
) -> SelectionResult:
    """Decompose a univariate series and pick the number of components
    by the residual-whiteness criterion."""
    dec = decompose(y, window)
    return select_from_decomposition(
        dec, y, series_index=1, alpha=alpha, max_m=max_m, center=center
    )
