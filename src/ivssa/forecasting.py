"""Recurrent interval forecasting and out-of-sample parameter search.

One stepper, ``_run_recurrence``, advances many recurrences at once;
``forecast_recurrent`` is its one-row call.  The grid search runs one task
per window l, in order, in this process.  Its fits of the prefixes y[:w]
are ``decomposition._prefix_fits``', each bitwise ``decompose(y[:w], l)``,
and it reads them as ``recurrence_coefficients`` and ``trendline`` would:
the rank, the leading eigenvectors (whose prefix sums give the recurrence
weights of every m at once) and the last l-1 values of the components
its forecasts use.  The weights, the failure reasons and the forecasts of
a batch of fits run on stacked arrays.
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
    _integer,
    phi_arrays,
)
from .decomposition import DEFAULT_RANK_EPS, EigenPairs, _component_index, _prefix_fits
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


def _prefix_weights(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pi pi and nu^2 of every leading set of the eigenvector columns of u
    (..., l, M): column m-1 of the (..., l-1, M) and (..., M) results sums
    the first m columns in order, so the bits do not depend on how u was
    sliced or on how many columns follow."""
    pi = u[..., -1, :]
    return np.cumsum(u[..., :-1, :] * pi[..., None, :], axis=-1), np.cumsum(pi * pi, axis=-1)


def _alpha(pp: np.ndarray, nu2) -> np.ndarray:
    """alpha = reverse(Pi pi) / (1 - nu^2) of rows pp (..., l-1), so that
    alpha[..., j-1] multiplies lag j."""
    return pp[..., ::-1] / np.expand_dims(1.0 - nu2, -1)


def _recurrence(u: np.ndarray) -> tuple[np.ndarray, float]:
    """(alpha, nu^2) of the eigenvectors in the columns of u, from the last
    of ``_prefix_weights``' prefix sums; raises ``VerticalityError`` when
    nu^2 >= 1 - VERTICALITY_TOL."""
    pp, nu2 = _prefix_weights(u)
    nu2 = float(nu2[-1])
    if nu2 >= 1.0 - VERTICALITY_TOL:
        raise VerticalityError(
            f"selected eigenspace is vertical (nu^2 = {nu2:.17g}); "
            "no linear recurrence exists"
        )
    return _alpha(pp[:, -1], nu2), nu2


def recurrence_coefficients(
    eig: EigenPairs, grouping: Grouping
) -> RecurrenceCoefficients:
    """Recurrence weights spanned by the selected eigenvectors.

    With pi the last coordinates of the selected eigenvectors and Pi their
    first l-1 rows, alpha = reverse(Pi pi) / (1 - ||pi||^2).  A selected
    eigenspace with ||pi||^2 ~ 1 contains the last coordinate axis and
    admits no recurrence.
    """
    _component_index(eig, max(grouping.indices))
    idx = np.asarray(grouping.indices, dtype=int) - 1
    u = eig.leading(idx.max() + 1)
    if u.shape[0] < 2:
        raise ParameterError("recurrence needs window >= 2")
    alpha, nu2 = _recurrence(u[:, idx])
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
    horizon = _integer(horizon, "horizon", 1)
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
    n = _integer(n, "series length n", 4)
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


def _oos_chunk(y_lo, y_hi, decs, m_grid, p):
    """(len(decs), len(m_grid)) forecast errors of consecutive prefix fits
    of one window, inf where a cell failed, and the failed cells' masks:
    short of rank (m > d), else vertical (nu^2 ~ 1).  One pass reads each
    fit and drops it from ``decs``, so its Z and rows are freed; the
    weights, masks and forecasts then run on stacked arrays."""
    window = decs[0].window
    ms, m_max = np.asarray(m_grid), max(m_grid)
    r_top = min(m_max, window)
    ends = np.empty(len(decs), dtype=int)
    reach = np.empty(len(decs), dtype=int)
    u = np.empty((len(decs), window, r_top))
    tails = np.zeros((2, len(decs), r_top, window - 1))
    for f in range(len(decs)):
        dec, decs[f] = decs[f], None
        ends[f] = dec.series_length
        # a gap j >= max(m) lies within the rank, so reach is d wherever m > d
        reach[f] = within = dec.eig.reach(m_max)
        u[f] = dec.eig.leading(r_top)
        top = max((m for m in m_grid if m <= within), default=0)
        if top:
            a, b = dec.component_channels(range(1, top + 1))
            tails[0, f, :top], tails[1, f, :top] = a[:, 1 - window :], b[:, 1 - window :]
    pp, nu2 = _prefix_weights(u)
    col = np.minimum(ms, r_top) - 1
    rank = ms > reach[:, None]
    vertical = ~rank & (nu2[:, col] >= 1.0 - VERTICALITY_TOL)
    errors = np.full(rank.shape, np.inf)
    fit_at, m_at = np.nonzero(~(rank | vertical))
    if fit_at.size:
        trend_lo, trend_hi = phi_arrays(*np.cumsum(tails, axis=2))
        c_at = col[m_at]
        alpha = _alpha(pp[fit_at, :, c_at], nu2[fit_at, c_at])
        lo, hi = _run_recurrence(alpha, trend_lo[fit_at, c_at], trend_hi[fit_at, c_at], p)
        ahead = ends[fit_at, None] + np.arange(p)
        err = np.maximum(np.abs(y_lo[ahead] - lo), np.abs(y_hi[ahead] - hi))
        if not np.all(np.isfinite(err)):
            raise InvalidValueError("a recurrent forecast overflows float64")
        errors[fit_at, m_at] = err.sum(axis=1)
    return errors, rank, vertical


def _oos_window(args) -> tuple[np.ndarray, dict[int, str]]:
    """(len(fits), len(m_grid)) forecast errors of one window (inf where the
    fit failed) and the first failure reason of each failed m, over the
    batches of ``_prefix_fits``.  A failing fit raises what ``decompose``
    would raise on it; batches run in ascending fit length, and so do the
    checks within one."""
    y_lo, y_hi, window, fits, m_grid, p, rank_eps = args
    fits = _prefix_fits(y_lo, y_hi, window, fits, rank_eps)
    chunks = [_oos_chunk(y_lo, y_hi, decs, m_grid, p) for decs in fits]
    errors, rank, vertical = (np.concatenate(part) for part in zip(*chunks))
    # each failed m keeps the reason of its first failing fit
    failed = rank | vertical
    first = np.argmax(failed, axis=0)
    reasons = {
        m: "rank" if rank[first[j], j] else "vertical"
        for j, m in enumerate(m_grid)
        if failed[first[j], j]
    }
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
    p = _integer(p, "horizon p", 1)
    stride = _integer(stride, "stride", 1)
    if l_grid is None:
        l_grid = default_l_grid(n)
    l_grid = tuple(sorted({_integer(v, "a window grid entry", 2) for v in l_grid}))
    if m_grid is None:
        m_grid = tuple(range(1, 9))
    m_grid = tuple(sorted({_integer(v, "an m grid entry", 1) for v in m_grid}))
    if not l_grid or not m_grid:
        raise ParameterError("the window and m grids must not be empty")
    w0 = max(l_grid) + 1 if w0 is None else _integer(w0, "w0", max(l_grid) + 1)
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
