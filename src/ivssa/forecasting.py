"""Recurrent interval forecasting and out-of-sample parameter search.

One stepper, ``_run_recurrence``, advances many recurrences at once;
``forecast_recurrent`` is its one-row call.  The grid search runs one task
per window l, in order, in this process: it fits each prefix y[:w] with
``decompose``'s fit function on the trajectory grids, then forecasts all
(w, m) rows together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    IntervalSeries,
    InvalidValueError,
    ParameterError,
    VerticalityError,
    phi_arrays,
)
from .decomposition import DEFAULT_RANK_EPS, EigenPairs, _build, _gram
from .embedding import StackingMode
from .parallel import run_tasks
from .reconstruction import Grouping

#: nu^2 at or above this is treated as a vertical eigenspace (no recurrence).
VERTICALITY_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class RecurrenceCoefficients:
    """Linear recurrence weights; alpha[j-1] multiplies lag j."""

    alpha: np.ndarray
    verticality: float

    @property
    def order(self) -> int:
        return int(self.alpha.size)


def _recurrence(u: np.ndarray) -> tuple[np.ndarray, float]:
    """(alpha, nu^2) of the eigenvectors in the columns of u; raises
    ``VerticalityError`` when nu^2 >= 1 - VERTICALITY_TOL.  A contiguous copy
    makes the bits independent of how u was sliced."""
    u = np.ascontiguousarray(u)
    pi1 = u[-1, :]
    nu2 = float(pi1 @ pi1)
    if nu2 >= 1.0 - VERTICALITY_TOL:
        raise VerticalityError(
            f"selected eigenspace is vertical (nu^2 = {nu2:.17g}); "
            "no linear recurrence exists"
        )
    return (u[:-1, :] @ pi1)[::-1] / (1.0 - nu2), nu2


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
    if eig.vectors.shape[0] < 2:
        raise ParameterError("recurrence needs window >= 2")
    idx = np.asarray(grouping.indices, dtype=int) - 1
    alpha, nu2 = _recurrence(eig.vectors[:, idx])
    alpha = np.ascontiguousarray(alpha)
    alpha.flags.writeable = False
    return RecurrenceCoefficients(alpha=alpha, verticality=nu2)


def _run_recurrence(
    alpha: np.ndarray, lo: np.ndarray, hi: np.ndarray, horizon: int
) -> tuple[np.ndarray, np.ndarray]:
    """(rows, horizon) forecast channels of one recurrence per row, all rows
    stepped together: row r weighs lag j by alpha[r, j-1] and starts from
    lo[r], hi[r] (oldest first).  Every step orders the two channel
    predictions into an interval and feeds the ordered endpoints back."""
    rows, order = alpha.shape
    ar = alpha[:, ::-1]
    buf = np.empty((2, rows, order + horizon))
    buf[:, :, :order] = lo, hi
    for t in range(horizon):
        x = np.einsum("rj,crj->cr", ar, buf[:, :, t : t + order])
        buf[0, :, order + t], buf[1, :, order + t] = phi_arrays(x[0], x[1])
    return buf[0, :, order:], buf[1, :, order:]


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
    lo, hi = _run_recurrence(
        coef.alpha[None, :], trend.lo[None, -order:], trend.hi[None, -order:], horizon
    )
    return ForecastResult(IntervalSeries(lo[0], hi[0]), horizon, len(trend))


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
    smaller l.  ``failure_reasons`` gives each failed cell's first cause in
    ascending fit length: ``"rank"`` (m > d) or ``"vertical"`` (nu^2 ~ 1).
    """

    window: int
    m: int
    objective: dict[tuple[int, int], float]
    failed: frozenset[tuple[int, int]]
    failure_reasons: dict[tuple[int, int], str]
    l_grid: tuple[int, ...]
    m_grid: tuple[int, ...]
    w0: int
    p: int
    stride: int
    n_windows: int


def _oos_window(args) -> tuple[np.ndarray, dict[int, str]]:
    """(len(fits), len(m_grid)) forecast errors of one window (inf where the
    fit failed) and the first failure reason of each failed m.  Fits are
    built from the trajectory grids, with no series or pair-matrix object."""
    y_lo, y_hi, window, fits, m_grid, p, rank_eps = args
    order = window - 1
    errors = np.full((len(fits), len(m_grid)), np.inf)
    reasons: dict[int, str] = {}
    rows, alphas, starts = [], [], []
    for i, w in enumerate(fits):
        idx = np.arange(window)[:, None] + np.arange(w - order)[None, :]
        a, b = y_lo[idx], y_hi[idx]
        dec = _build(a, b, _gram(a, b), StackingMode.UNIVARIATE, window, 1, w, rank_eps)
        feasible = [m for m in m_grid if m <= dec.d]
        for m in m_grid[len(feasible) :]:
            reasons.setdefault(m, "rank")
        ca, cb = dec.component_channels(range(1, max(feasible, default=0) + 1))
        trend_lo, trend_hi = phi_arrays(
            np.cumsum(ca[:, -order:], axis=0), np.cumsum(cb[:, -order:], axis=0)
        )
        for j, m in enumerate(feasible):
            try:
                alpha, _ = _recurrence(dec.eig.vectors[:, :m])
            except VerticalityError:
                reasons.setdefault(m, "vertical")
                continue
            rows.append((i, j))
            alphas.append(alpha)
            starts.append((trend_lo[m - 1], trend_hi[m - 1]))
    if rows:
        fit_at, m_at = np.array(rows).T
        start_lo, start_hi = np.array(starts).transpose(1, 0, 2)
        lo, hi = _run_recurrence(np.array(alphas), start_lo, start_hi, p)
        ahead = np.asarray(fits)[fit_at, None] + np.arange(p)
        err = np.maximum(np.abs(y_lo[ahead] - lo), np.abs(y_hi[ahead] - hi))
        if not np.all(np.isfinite(err)):
            raise InvalidValueError("a recurrent forecast overflows float64")
        errors[fit_at, m_at] = err.sum(axis=1)
    return errors, reasons


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
    out values.  A cell where any window fails is disqualified.  The
    candidate windows run one after another, one ``run_tasks`` task each.
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
    tasks = [(y.lo, y.hi, window, windows, m_grid, p, rank_eps) for window in l_grid]
    objective: dict[tuple[int, int], float] = {}
    failure_reasons: dict[tuple[int, int], str] = {}
    for window, (errors, reasons) in zip(l_grid, run_tasks(_oos_window, tasks)):
        # cumsum adds the fit lengths in ascending order; a failed fit is inf
        totals = np.cumsum(errors, axis=0)[-1].tolist()
        objective.update(((window, m), total) for m, total in zip(m_grid, totals))
        failure_reasons.update(((window, m), r) for m, r in reasons.items())
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
        failed=frozenset(failure_reasons),
        failure_reasons=failure_reasons,
        l_grid=l_grid,
        m_grid=m_grid,
        w0=w0,
        p=p,
        stride=stride,
        n_windows=len(windows),
    )
