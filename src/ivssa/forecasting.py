"""Recurrent interval forecasting and out-of-sample parameter search."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    IntervalSeries,
    ParameterError,
    VerticalityError,
    phi_arrays,
)
from .decomposition import (
    DEFAULT_RANK_EPS,
    EigenPairs,
    decompose,
)
from .parallel import run_tasks
from .reconstruction import Grouping

#: nu^2 at or above this is treated as a vertical eigenspace (no recurrence).
VERTICALITY_TOL = 1e-10


@dataclass(frozen=True)
class RecurrenceCoefficients:
    """Linear recurrence weights; alpha[j-1] multiplies lag j."""

    alpha: np.ndarray
    verticality: float

    @property
    def order(self) -> int:
        return int(self.alpha.size)


def recurrence_coefficients(
    eig: EigenPairs, grouping: Grouping
) -> RecurrenceCoefficients:
    """Recurrence weights spanned by the selected eigenvectors.

    With pi the last coordinates of the selected eigenvectors and Pi their
    first l-1 rows, alpha = reverse(Pi pi) / (1 - ||pi||^2).  A selected
    eigenspace with ||pi||^2 ~ 1 contains the last coordinate axis and
    admits no recurrence.
    """
    grouping.validate(eig.d)
    window = eig.vectors.shape[0]
    if window < 2:
        raise ParameterError("recurrence needs window >= 2")
    idx = np.asarray(grouping.indices, dtype=int) - 1
    u = eig.vectors[:, idx]
    pi1 = u[-1, :]
    nu2 = float(pi1 @ pi1)
    if nu2 >= 1.0 - VERTICALITY_TOL:
        raise VerticalityError(
            f"selected eigenspace is vertical (nu^2 = {nu2:.17g}); "
            "no linear recurrence exists"
        )
    alpha = (u[:-1, :] @ pi1)[::-1] / (1.0 - nu2)
    alpha = np.ascontiguousarray(alpha)
    alpha.flags.writeable = False
    return RecurrenceCoefficients(alpha=alpha, verticality=nu2)


@dataclass(frozen=True)
class ForecastResult:
    """Point forecasts of the trendline, ``origin`` observed values back."""

    values: IntervalSeries
    horizon: int
    origin: int


def forecast_recurrent(
    trend: IntervalSeries, coef: RecurrenceCoefficients, horizon: int
) -> ForecastResult:
    """Iterate the recurrence on each endpoint channel of the trendline.

    Every step orders the two channel predictions into an interval and feeds
    the ordered endpoints back into the recursion state.
    """
    if horizon < 1:
        raise ParameterError(f"horizon must be >= 1, got {horizon}")
    order = coef.order
    if len(trend) < order:
        raise ParameterError(
            f"trendline has {len(trend)} values; recurrence of order {order} "
            "needs at least that many"
        )
    ar = coef.alpha[::-1]
    state_a = trend.lo[-order:].copy()
    state_b = trend.hi[-order:].copy()
    out_lo = np.empty(horizon)
    out_hi = np.empty(horizon)
    for t in range(horizon):
        xa = float(ar @ state_a)
        xb = float(ar @ state_b)
        lo, hi = (xa, xb) if xa <= xb else (xb, xa)
        out_lo[t] = lo
        out_hi[t] = hi
        state_a[:-1] = state_a[1:]
        state_a[-1] = lo
        state_b[:-1] = state_b[1:]
        state_b[-1] = hi
    return ForecastResult(
        values=IntervalSeries(out_lo, out_hi),
        horizon=horizon,
        origin=len(trend),
    )


def default_l_grid(n: int) -> tuple[int, ...]:
    """Candidate windows ceil(n/5), ceil(n/4), ceil(n/3), ceil(n/2)."""
    if n < 4:
        raise ParameterError(f"series too short for a window grid: n = {n}")
    grid = {max(2, -(-n // div)) for div in (5, 4, 3, 2)}
    return tuple(sorted(grid))


@dataclass(frozen=True)
class OosResult:
    """Grid search outcome: forecast-error table and the winning cell.

    ``objective[(l, m)]`` is the Hausdorff forecast error summed over all
    expanding windows (inf for failed cells); ties prefer smaller m, then
    smaller l.
    """

    window: int
    m: int
    objective: dict[tuple[int, int], float]
    failed: frozenset[tuple[int, int]]
    l_grid: tuple[int, ...]
    m_grid: tuple[int, ...]
    w0: int
    p: int
    stride: int
    n_windows: int


def _oos_cell(args) -> tuple[int, int, dict[int, float | None]]:
    """Forecast errors of every m for one (window, fit-length) pair.

    Returns per-m summed Hausdorff error over the p-step forecast, or None
    where the fit failed (rank short of m, or a vertical eigenspace).
    """
    y_lo, y_hi, window, w, m_list, p, rank_eps = args
    sub = IntervalSeries(y_lo[:w], y_hi[:w])
    out: dict[int, float | None] = {}
    dec = decompose(sub, window, rank_eps=rank_eps)
    feasible = [m for m in m_list if m <= dec.d]
    for m in m_list:
        if m > dec.d:
            out[m] = None
    if not feasible:
        return window, w, out
    ca, cb = dec.component_channels(range(1, max(feasible) + 1))
    ta = np.cumsum(ca, axis=0)
    tb = np.cumsum(cb, axis=0)
    true_lo = y_lo[w : w + p]
    true_hi = y_hi[w : w + p]
    for m in feasible:
        try:
            coef = recurrence_coefficients(dec.eig, Grouping.leading(m))
        except VerticalityError:
            out[m] = None
            continue
        lo, hi = phi_arrays(ta[m - 1], tb[m - 1])
        fc = forecast_recurrent(IntervalSeries(lo, hi), coef, p)
        err = np.maximum(
            np.abs(true_lo - fc.values.lo), np.abs(true_hi - fc.values.hi)
        )
        out[m] = float(err.sum())
    return window, w, out


def select_params_oos(
    y: IntervalSeries,
    l_grid: tuple[int, ...] | None = None,
    m_grid: tuple[int, ...] | None = None,
    w0: int | None = None,
    p: int = 12,
    stride: int = 1,
    rank_eps: float = DEFAULT_RANK_EPS,
) -> OosResult:
    """Pick (window, m) by expanding-window forecast error.

    Every grid cell refits on y[:w] for w = w0, w0+stride, ... <= n-p,
    forecasts p steps, and accumulates the Hausdorff distance to the held
    out values.  A cell where any window fails is disqualified.
    """
    n = len(y)
    if p < 1:
        raise ParameterError(f"horizon p must be >= 1, got {p}")
    if stride < 1:
        raise ParameterError(f"stride must be >= 1, got {stride}")
    if l_grid is None:
        l_grid = default_l_grid(n)
    l_grid = tuple(sorted(set(int(v) for v in l_grid)))
    if not l_grid or l_grid[0] < 2:
        raise ParameterError(f"window grid must contain integers >= 2: {l_grid}")
    if m_grid is None:
        m_grid = tuple(range(1, 9))
    m_grid = tuple(sorted(set(int(v) for v in m_grid)))
    if not m_grid or m_grid[0] < 1:
        raise ParameterError(f"m grid must contain integers >= 1: {m_grid}")
    if w0 is None:
        w0 = max(l_grid) + 1
    if w0 <= max(l_grid):
        raise ParameterError(
            f"w0 = {w0} must exceed the largest candidate window {max(l_grid)}"
        )
    if w0 + p > n:
        raise ParameterError(
            f"first fit length w0 = {w0} plus horizon {p} exceeds n = {n}"
        )
    windows = list(range(w0, n - p + 1, stride))
    tasks = [
        (y.lo, y.hi, window, w, m_grid, p, rank_eps)
        for window in l_grid
        for w in windows
    ]
    results = run_tasks(_oos_cell, tasks)
    objective: dict[tuple[int, int], float] = {
        (window, m): 0.0 for window in l_grid for m in m_grid
    }
    failed: set[tuple[int, int]] = set()
    for window, _w, out in results:
        for m, err in out.items():
            if err is None:
                failed.add((window, m))
            else:
                objective[(window, m)] += err
    for cell in failed:
        objective[cell] = math.inf
    best = min(
        ((objective[(window, m)], m, window) for window in l_grid for m in m_grid),
    )
    if not math.isfinite(best[0]):
        raise ParameterError(
            "every (window, m) cell failed during out-of-sample evaluation"
        )
    return OosResult(
        window=best[2],
        m=best[1],
        objective=objective,
        failed=frozenset(failed),
        l_grid=l_grid,
        m_grid=m_grid,
        w0=w0,
        p=p,
        stride=stride,
        n_windows=len(windows),
    )
