"""Recurrent interval forecasting and out-of-sample parameter search.

One stepper, ``_run_recurrence``, advances many recurrences at once;
``forecast_recurrent`` is its one-row call.  The grid search runs one task
per window l, in order, in this process, and fits the window's prefixes
y[:w] in batches of at most 8 MB of covariance: S = Z Z' of each prefix's
channel matrix Z (``embedding._embed`` over prefixes of the channel
series), then one checked ``eigh`` of the batch's stacked S.  The
recurrence weights of every m are prefix sums over the eigenvector
columns, taken for all fits of a batch at once, and so are the failure
reasons and the forecasts of its (w, m) rows.  Per fit, only the
components a forecast uses are diagonal-averaged, and only the last l-1
trendline values are kept.
Every step uses the operations of ``decompose``, ``trendline`` and
``recurrence_coefficients`` (which shares the prefix sums), so the grid
search forecasts from the same bits as a per-prefix fit would.
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
    symbolic_channels,
)
from .decomposition import (
    DEFAULT_RANK_EPS,
    EigenPairs,
    _averaged,
    _component_index,
    _checked_eigh,
    _symmetric_product,
)
from .embedding import StackingMode, _embed
from .parallel import run_tasks
from .reconstruction import Grouping

#: nu^2 at or above this is treated as a vertical eigenspace (no recurrence).
VERTICALITY_TOL = 1e-10

#: Bytes of stacked covariance matrices one eigensolve of the grid search
#: holds: a window with more fits runs in consecutive chunks of ascending
#: fit length, so its memory does not grow with the number of fits.
_CHUNK_BYTES = 8 << 20


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


def _trend_tails(
    c: np.ndarray,
    r: np.ndarray,
    fits: np.ndarray,
    vectors: np.ndarray,
    d: np.ndarray,
    top: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """(fits, max(top), l-1) channels of the last l-1 trendline values of
    every fit y[:w] and leading group size, phi-ordered: [f, m-1] sums fit
    f's first m components, for m up to top[f].  c and r are the channel
    series of y (``symbolic_channels``).

    Fit f projects the Z of its prefix on its d[f] leading eigenvectors, as
    ``decompose`` does, and averages each component with ``_averaged``, the
    kernel of ``Decomposition.component_channels``; the component-order
    prefix sum is that of ``trendline``.  So the tails are bitwise those of
    ``trendline`` on a per-fit ``decompose``.
    """
    _, l, _ = vectors.shape
    tails = np.zeros((2, len(fits), top.max(), l - 1))
    for f, w in enumerate(fits):
        m = top[f]
        if not m:
            continue
        # a contiguous copy, laid out as ``eigen_sym`` returns it
        ut = vectors[f].copy()[:, : d[f]].T
        proj = ut @ _embed([(c[:w], r[:w])], l, StackingMode.UNIVARIATE)
        k = w - l + 1
        # antidiagonal lengths of the last l-1 positions
        counts = np.minimum(np.arange(l - 1, 0, -1), k)
        tails[:, f, :m] = _averaged(ut[:m], proj[:m, :k], proj[:m, k:], counts)
    return phi_arrays(*np.cumsum(tails, axis=2))


def _oos_chunk(y_lo, y_hi, c, r, window, fits, ms, p, rank_eps):
    """(len(fits), len(ms)) forecast errors of consecutive fits of one
    window, inf where a cell failed, and the failed cells' masks: short of
    rank (m > d), else vertical (nu^2 ~ 1).  c and r are the channel series."""
    s = np.empty((len(fits), window, window))
    for f, w in enumerate(fits):
        s[f] = _symmetric_product(_embed([(c[:w], r[:w])], window, StackingMode.UNIVARIATE))
    nonzero = np.logical_or.accumulate((y_lo != 0) | (y_hi != 0))[fits - 1]
    _, vectors, d = _checked_eigh(s, rank_eps, nonzero)
    del s  # as large as the eigenvectors, and no longer needed
    r_top = min(ms.max(), window)
    pp, nu2 = _prefix_weights(vectors[:, :, :r_top])
    col = np.minimum(ms, r_top) - 1
    rank = ms > d[:, None]
    vertical = ~rank & (nu2[:, col] >= 1.0 - VERTICALITY_TOL)
    failed = rank | vertical
    errors = np.full(failed.shape, np.inf)
    fit_at, m_at = np.nonzero(~failed)
    if fit_at.size:
        top = np.where(failed, 0, ms).max(axis=1)
        trend_lo, trend_hi = _trend_tails(c, r, fits, vectors, d, top)
        c_at = col[m_at]
        lo, hi = _run_recurrence(
            _alpha(pp[fit_at, :, c_at], nu2[fit_at, c_at]),
            trend_lo[fit_at, c_at],
            trend_hi[fit_at, c_at],
            p,
        )
        ahead = fits[fit_at, None] + np.arange(p)
        err = np.maximum(np.abs(y_lo[ahead] - lo), np.abs(y_hi[ahead] - hi))
        if not np.all(np.isfinite(err)):
            raise InvalidValueError("a recurrent forecast overflows float64")
        errors[fit_at, m_at] = err.sum(axis=1)
    return errors, rank, vertical


def _oos_window(args) -> tuple[np.ndarray, dict[int, str]]:
    """(len(fits), len(m_grid)) forecast errors of one window (inf where the
    fit failed) and the first failure reason of each failed m.

    Each fit y[:w] costs one embedding and Gram product, and one more
    embedding for the projections and the diagonal averaging of the
    components it forecasts with; the eigensolve, the recurrence weights of
    every m, the failure reasons and the forecasts run on stacked arrays,
    once per chunk of at most _CHUNK_BYTES of covariance matrices.  A
    failing fit raises what ``decompose`` would raise on it; chunks run in
    ascending fit length, and so do the checks within one."""
    y_lo, y_hi, window, fits, m_grid, p, rank_eps = args
    fits = np.asarray(fits)
    ms = np.asarray(m_grid)
    c, r = symbolic_channels(y_lo, y_hi)
    size = max(1, _CHUNK_BYTES // (8 * window * window))
    chunks = [
        _oos_chunk(y_lo, y_hi, c, r, window, fits[i : i + size], ms, p, rank_eps)
        for i in range(0, len(fits), size)
    ]
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
