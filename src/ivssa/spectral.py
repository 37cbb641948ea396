"""Residual periodogram and the targeted-grouping whiteness criterion.

Components are added one at a time until the cumulative periodogram of the
interval residuals passes a Kolmogorov-Smirnov white-noise test.  The
interval autocovariance weighs endpoint lag products 2:1:1:2, which in the
channels of ``symbolic_channels`` is the sum of the mid channel's and the
radius/sqrt(3) channel's real autocovariances.  At the Fourier frequencies
its plug-in spectrum is therefore the sum of the two channels' squared DFT
moduli over 2*pi*n, so no autocovariance is formed.

The scan tests prefixes in blocks of 1, 2, 4, ... at a time: one
``component_channels`` read of the leading components, their prefix sums,
and one row-wise pass (``_whiteness_rows``: residuals, rms test, one real
FFT per row, KS statistic) over the block's rows, cut at the first
accepted prefix.  ``np.cumsum`` adds in order, so each row has the bits of
the one-prefix-per-step scan.
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
    _integer,
    phi_arrays,
    symbolic_channels,
)
from .decomposition import Decomposition

#: Residuals below this fraction of the series scale count as a perfect fit.
PERFECT_FIT_RTOL = 1e-10

#: Default cap on the number of components scanned by the selection loop.
DEFAULT_MAX_M = 40


def ks_critical_value(alpha: float) -> float:
    """Asymptotic Kolmogorov-Smirnov critical value; 1.358 at alpha = 0.05."""
    if not 0.0 < alpha < 1.0:
        raise ParameterError(f"alpha must lie in (0, 1), got {alpha}")
    return math.sqrt(-0.5 * math.log(alpha / 2.0))


@dataclass(frozen=True, eq=False)
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
    which callers treat as a perfect fit.  The one-row call of
    ``_whiteness_rows``, with no trend and no rms test.
    """
    ordinates, cumulative, ks, zero_power = _whiteness_rows(
        e.lo[None], e.hi[None], 0.0, 0.0, -math.inf
    )
    if zero_power[0]:
        if not (e.lo.any() or e.hi.any()):
            raise DegenerateSpectrumError("residual series is identically zero")
        raise DegenerateSpectrumError("residual spectrum has zero total power")
    freqs = 2.0 * np.pi * np.arange(1, ordinates.shape[1] + 1) / len(e)
    for arr in (freqs, ordinates, cumulative):
        arr.flags.writeable = False
    return PeriodogramResult(
        frequencies=freqs,
        ordinates=ordinates[0],
        cumulative=cumulative[0],
        ks_stat=float(ks[0]),
        n_clipped=0,
    )


def _whiteness_rows(
    y_lo: np.ndarray, y_hi: np.ndarray, trend_lo, trend_hi, floor: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Ordinates, cumulative periodograms, KS statistics and perfect-fit
    flags, row by row, of the residuals (y_lo - trend_lo, y_hi - trend_hi)
    broadcast to (B, n).  A perfect fit (rms at most ``floor``, or zero
    spectral power) has a NaN statistic.  n < 4 is refused unless row 0,
    the first the scan tests, is a perfect fit by rms."""
    res_a = y_lo - trend_lo
    res_b = y_hi - trend_hi
    n = res_a.shape[1]
    perfect = np.sqrt((res_a**2 + res_b**2).sum(axis=1) / n) <= floor
    if n < 4 and not perfect[0]:
        raise ParameterError(f"periodogram needs n >= 4, got {n}")
    j_count = (n - 1) // 2
    # the channels of phi(res): the mid as is, and |radius|, bit for bit
    c, r = symbolic_channels(res_a, res_b)
    spec = np.fft.rfft((c, np.abs(r)))[..., 1 : j_count + 1]
    ordinates = (spec.real**2 + spec.imag**2).sum(axis=0) / (2.0 * np.pi * n)
    total = ordinates.sum(axis=1, keepdims=True)
    perfect |= total[:, 0] <= 0.0
    # the least subnormal lifts only a zero total, whose ordinates are all 0
    cumulative = ordinates.cumsum(axis=1) / np.maximum(total, math.ulp(0.0))
    gaps = np.abs(cumulative - np.arange(1, j_count + 1) / max(j_count, 1))
    ks = math.sqrt(j_count) * gaps.max(axis=1, initial=0.0)
    ks[perfect] = math.nan
    return ordinates, cumulative, ks, perfect


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

    Scans prefixes I = {1..i} in blocks: reconstructs the trendlines of the
    given series, tests their residuals, and stops at the first accepted i.
    """
    if not dec.eig.within_rank(1):
        raise ParameterError("decomposition has rank zero; nothing to select")
    dec.series_block(series_index)  # rejects an index that names no series
    if len(y) != dec.series_length:
        raise ShapeError(
            f"series length {len(y)} does not match decomposition length "
            f"{dec.series_length}"
        )
    cap = DEFAULT_MAX_M if max_m is None else _integer(max_m, "max_m", 1)
    crit = ks_critical_value(alpha)
    floor = PERFECT_FIT_RTOL * float(np.sqrt(np.mean(y.lo**2 + y.hi**2)))
    trace: list[float] = []
    i, converged, perfect_fit = 1, False, False
    while not converged and i <= cap and dec.eig.within_rank(i):  # d read past the gap only
        # prefixes i..stop in one block of at most i rows, inside the known
        # gap block while the scan is in it, so an early stop solves nothing
        stop = min(2 * i - 1, cap, dec.eig.reach(i))
        ca, cb = dec.component_channels(range(1, stop + 1), series_index)
        lo, hi = phi_arrays(np.cumsum(ca, axis=0)[i - 1 :], np.cumsum(cb, axis=0)[i - 1 :])
        ks, perfect = _whiteness_rows(y.lo, y.hi, lo, hi, floor)[2:]
        hits = np.flatnonzero(perfect | (ks <= crit))
        r = hits[0] if hits.size else ks.size - 1  # the trace ends at the first accepted row
        trace += ks[: r + 1].tolist()
        converged, perfect_fit = bool(hits.size), bool(perfect[r])
        i = stop + 1
    return SelectionResult(
        m=len(trace),
        converged=converged,
        ks_trace=tuple(trace),
        alpha=alpha,
        critical_value=crit,
        perfect_fit=perfect_fit,
    )
