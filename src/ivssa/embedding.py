"""Trajectory-matrix construction and window-length defaults."""

from __future__ import annotations

import enum
import math
from typing import Sequence

import numpy as np

from .core import IntervalSeries, PairMatrix, ParameterError, ShapeError


class StackingMode(enum.Enum):
    UNIVARIATE = "univariate"
    VERTICAL = "vertical"
    HORIZONTAL = "horizontal"


def trajectory(y: IntervalSeries, window: int) -> PairMatrix:
    """Build the l x k trajectory matrix of rolling windows, k = n - l + 1.

    Entry (i, j) holds the ordered pair (lo[i+j], hi[i+j]) (0-based), so the
    result is Hankel by construction.
    """
    window = int(window)
    k = trajectory_columns(len(y), window)
    idx = np.arange(window)[:, None] + np.arange(k)[None, :]
    return PairMatrix(y.lo[idx], y.hi[idx])


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
    its own trajectory matrix.
    """
    if len(series) == 0:
        raise ParameterError("need at least one series to stack")
    lengths = {len(s) for s in series}
    if len(lengths) != 1:
        raise ShapeError(f"stacked series must share one length, got {sorted(lengths)}")
    blocks = [trajectory(s, window) for s in series]
    if len(blocks) == 1:
        return blocks[0]
    if mode is StackingMode.VERTICAL:
        return PairMatrix(
            np.vstack([m.a for m in blocks]), np.vstack([m.b for m in blocks])
        )
    if mode is StackingMode.HORIZONTAL:
        return PairMatrix(
            np.hstack([m.a for m in blocks]), np.hstack([m.b for m in blocks])
        )
    raise ParameterError(f"mode {mode} requires a single series, got {len(series)}")


def default_window(n: int, n_series: int = 1, mode: StackingMode = StackingMode.UNIVARIATE) -> int:
    """Default window length: ceil((n+1)/2) univariate, ceil((n+1)/(D+1))
    vertical, ceil(D(n+1)/(D+1)) horizontal; clamped to the valid range [2, n-1]."""
    if n < 3:
        raise ParameterError(f"need n >= 3 for any window, got {n}")
    if n_series < 1:
        raise ParameterError(f"series count must be >= 1, got {n_series}")
    d = n_series
    if mode is StackingMode.UNIVARIATE:
        raw = math.ceil((n + 1) / 2)
    elif mode is StackingMode.VERTICAL:
        raw = math.ceil((n + 1) / (d + 1))
    else:
        raw = math.ceil(d * (n + 1) / (d + 1))
    return min(max(raw, 2), n - 1)
