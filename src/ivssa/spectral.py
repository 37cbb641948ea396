"""Residual periodogram and the targeted-grouping whiteness criterion.

Components are added one at a time until the cumulative periodogram of the
interval residuals passes a Kolmogorov-Smirnov white-noise test.  The
interval autocovariance weighs endpoint lag products 2:1:1:2, which in the
channels of ``symbolic_channels`` is the sum of the mid channel's and the
radius/sqrt(3) channel's real autocovariances.  At the Fourier frequencies
its plug-in spectrum is therefore the sum of the two channels' squared DFT
moduli over 2*pi*n, so no autocovariance is formed.
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


def ks_critical_value(alpha: float) -> float:
    """Asymptotic Kolmogorov-Smirnov critical value; 1.358 at alpha = 0.05."""
    if not 0.0 < alpha < 1.0:
        raise ParameterError(f"alpha must lie in (0, 1), got {alpha}")
    return math.sqrt(-0.5 * math.log(alpha / 2.0))


@dataclass(frozen=True)
class PeriodogramResult:
    """Interval periodogram over the Fourier frequencies 2*pi*j/n, j = 1..J.

    ``cumulative`` is the normalized running sum of the ordinates;
    ``ks_stat`` is sqrt(J) * max_j |C(w_j) - j/J|.  ``n_clipped`` is always 0:
    ordinates are sums of squared DFT moduli, so none is negative and none is
    clipped.
    """

    frequencies: np.ndarray
    ordinates: np.ndarray
    cumulative: np.ndarray
    ks_stat: float
    n_clipped: int

    @property
    def j_count(self) -> int:
        return int(self.frequencies.size)


def periodogram(e: IntervalSeries) -> PeriodogramResult:
    """Spectral plug-in estimator of an interval residual series.

    f(w_j) = (1/2pi) sum_{|h|<n} gamma(h) exp(-i h w_j) for
    j = 1..floor((n-1)/2), which at w_j = 2*pi*j/n equals
    (|DFT(C)(w_j)|^2 + |DFT(R/sqrt(3))(w_j)|^2) / (2*pi*n).  The DFT of a
    constant vanishes for j >= 1, so the ordinates do not depend on the
    channel means.  Zero total power raises ``DegenerateSpectrumError``,
    which callers treat as a perfect fit.
    """
    n = len(e)
    if n < 4:
        raise ParameterError(f"periodogram needs n >= 4, got {n}")
    if not (e.lo.any() or e.hi.any()):
        raise DegenerateSpectrumError("residual series is identically zero")
    j_count = (n - 1) // 2
    j = np.arange(1, j_count + 1)
    freqs = 2.0 * np.pi * j / n
    spec = np.fft.rfft(symbolic_channels(e.lo, e.hi))[:, 1 : j_count + 1]
    ordinates = (spec.real**2 + spec.imag**2).sum(axis=0) / (2.0 * np.pi * n)
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
        n_clipped=0,
    )


def residual_whiteness(
    y: IntervalSeries,
    trend_lo: np.ndarray,
    trend_hi: np.ndarray,
    critical_value: float,
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
        pg = periodogram(IntervalSeries(lo, hi))
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
        ks, accepted, perfect = residual_whiteness(y, lo, hi, crit, scale=scale)
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
) -> SelectionResult:
    """Decompose a univariate series and pick the number of components
    by the residual-whiteness criterion."""
    dec = decompose(y, window)
    return select_from_decomposition(dec, y, series_index=1, alpha=alpha, max_m=max_m)
