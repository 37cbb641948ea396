"""Trajectory-matrix construction and window-length defaults.

``_embed`` is the one Hankel embedding: every fit takes its channel matrix
Z from it, and ``stack`` its endpoint grids.
"""

from __future__ import annotations

import enum
import math
from typing import Sequence

import numpy as np

from .core import IntervalSeries, PairMatrix, ParameterError, ShapeError, _integer


class StackingMode(enum.Enum):
    UNIVARIATE = "univariate"
    VERTICAL = "vertical"
    HORIZONTAL = "horizontal"


def _windows(v: np.ndarray, window: int, k: int) -> np.ndarray:
    """(window, k) view of the contiguous series v with entry (i, j) = v[i + j].

    Built on v's buffer rather than with ``as_strided``: a process copying
    a few thousand ``as_strided`` windows kept about 1 MB more allocated
    (numpy 2.4)."""
    return np.ndarray((window, k), v.dtype, v, 0, (v.strides[0],) * 2)


def _embed(
    pairs: Sequence[tuple[np.ndarray, np.ndarray]], window: int, mode: StackingMode
) -> np.ndarray:
    """The stacked trajectory matrix of two arrays per series, a new C-ordered array.

    ``pairs`` holds each series' two contiguous arrays of one length n: its
    channels (mid, radius/sqrt(3)) of ``symbolic_channels`` for a fit, which
    gives Z = [C, R/sqrt(3)] with S = Z Z', or its endpoints for ``stack``.
    With X_s and Y_s the l x k windows of series s's arrays, vertical
    stacking gives the (D l) x 2k row bands [X_s, Y_s]; any other mode
    orders the l x 2kD columns [X_1 ... X_D | Y_1 ... Y_D], which for one
    series is [X, Y].
    """
    lengths = {len(x) for pair in pairs for x in pair}
    if len(lengths) != 1:
        raise ShapeError(f"stacked series must share one length, got {sorted(lengths)}")
    k = trajectory_columns(lengths.pop(), window)
    blocks = [[_windows(x, window, k) for x in pair] for pair in pairs]
    if mode is StackingMode.VERTICAL:
        return np.block(blocks)
    return np.hstack([x for x, _ in blocks] + [y for _, y in blocks])


def trajectory(y: IntervalSeries, window: int) -> PairMatrix:
    """Build the l x k trajectory matrix of rolling windows, k = n - l + 1.

    Entry (i, j) holds the ordered pair (lo[i+j], hi[i+j]) (0-based), so the
    result is Hankel by construction.
    """
    window = _integer(window, "window")
    k = trajectory_columns(len(y), window)
    return PairMatrix(_windows(y.lo, window, k), _windows(y.hi, window, k))


def trajectory_columns(n: int, window: int) -> int:
    """Columns k = n - l + 1 of the trajectory matrix of a length-n series;
    raises unless 2 <= l <= n-1."""
    if not 2 <= window <= n - 1:
        raise ParameterError(
            f"window must satisfy 2 <= l <= n-1, got l={window} for n={n}"
        )
    return n - window + 1


def stack(
    series: Sequence[IntervalSeries], window: int, mode: StackingMode
) -> PairMatrix:
    """Stack per-series trajectory matrices: vertically ((l*D) x k) or horizontally (l x (k*D)).

    All series must share one length; a single series in any mode reduces to
    its own trajectory matrix.  The grids are the two halves of ``_embed``
    of the endpoints.
    """
    if len(series) == 0:
        raise ParameterError("need at least one series to stack")
    if len(series) > 1 and mode is StackingMode.UNIVARIATE:
        raise ParameterError(f"mode {mode} requires a single series, got {len(series)}")
    z = _embed([(s.lo, s.hi) for s in series], _integer(window, "window"), mode)
    half = z.shape[1] // 2
    return PairMatrix(z[:, :half], z[:, half:])


def default_window(n: int, n_series: int = 1, mode: StackingMode = StackingMode.UNIVARIATE) -> int:
    """Default window length: ceil((n+1)/2) univariate, ceil((n+1)/(D+1))
    vertical, ceil(D(n+1)/(D+1)) horizontal; clamped to the valid range [2, n-1]."""
    n = _integer(n, "series length n", 3)
    d = _integer(n_series, "series count", 1)
    if mode is StackingMode.UNIVARIATE:
        raw = math.ceil((n + 1) / 2)
    elif mode is StackingMode.VERTICAL:
        raw = math.ceil((n + 1) / (d + 1))
    else:
        raw = math.ceil(d * (n + 1) / (d + 1))
    return min(max(raw, 2), n - 1)
