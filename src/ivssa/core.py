"""Interval series, the trajectory pair matrix, and library errors.

A fit works on the real channels of a series, mid and radius/sqrt(3)
(``symbolic_channels``).  Reconstructed components return to endpoint
*pairs* (a, b) with no ordering constraint through ``channel_endpoints``;
only at emission are pairs mapped to valid intervals by ``phi_arrays``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class IvssaError(Exception):
    """Base class for all library errors."""


class InvalidValueError(IvssaError):
    """Non-finite input or interval endpoints out of order."""


class ShapeError(IvssaError):
    """Incompatible matrix or series dimensions."""


class ParameterError(IvssaError):
    """Parameter outside its valid range."""


class VerticalityError(IvssaError):
    """Recurrent forecasting is undefined: squared last-component norm >= 1."""


class DegenerateSpectrumError(IvssaError):
    """Residual series carries zero spectral power (perfect fit)."""


class OutputError(IvssaError):
    """An output file cannot be written; names the path and the cause."""


class CsvError(IvssaError):
    """Malformed dataset file; carries the offending 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


def _integer(value, name: str, low: int | None = None) -> int:
    """value as an int if it is an int or an integral float at least
    ``low`` (when given), else raise naming the parameter.  An int never
    passes through float(), so one beyond float range is checked too."""
    if not isinstance(value, (int, np.integer)) and not (
        isinstance(value, (float, np.floating)) and float(value).is_integer()
    ):
        raise ParameterError(f"{name} must be an integer, got {value}")
    if low is not None and int(value) < low:
        raise ParameterError(f"{name} must be >= {low}, got {value}")
    return int(value)


def _as_float_grid(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise InvalidValueError(f"{name} contains non-finite values")
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


def phi_arrays(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Map pairs onto intervals: elementwise (min, max) of two equal-shape arrays."""
    return np.minimum(x, y), np.maximum(x, y)


def symbolic_channels(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real channels (mid, radius/sqrt(3)) of endpoint arrays a and b.

    With C = (a + b)/2 and R = (b - a)/2, the symbolic weighting of endpoint
    products is a plain real product of channels:
    (2 a a' + a b' + b a' + 2 b b')/6 = C C' + R R'/3.
    """
    return 0.5 * (a + b), (b - a) * (0.5 / np.sqrt(3.0))


def channel_endpoints(c: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Endpoint arrays (a, b) of the channels c (mid) and r (radius/sqrt(3)):
    the inverse of ``symbolic_channels``, a = c - sqrt(3) r, b = c + sqrt(3) r."""
    h = np.sqrt(3.0) * r
    return c - h, c + h


@dataclass(frozen=True, eq=False)
class PairMatrix:
    """Trajectory matrix of endpoint pairs, stored as two real grids of equal shape.

    ``a`` holds the first pair component, ``b`` the second; a pair may have
    a > b.  The grids are validated finite and made read-only.
    """

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = _as_float_grid(self.a, "pair matrix a-grid")
        b = _as_float_grid(self.b, "pair matrix b-grid")
        if a.ndim != 2 or b.ndim != 2:
            raise ShapeError("pair matrix grids must be 2-dimensional")
        if a.shape != b.shape:
            raise ShapeError(f"pair component shapes differ: {a.shape} vs {b.shape}")
        if a.size == 0:
            raise ShapeError("pair matrix must be nonempty")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def n_rows(self) -> int:
        return self.a.shape[0]

    @property
    def n_cols(self) -> int:
        return self.a.shape[1]


@dataclass(frozen=True, eq=False)
class IntervalSeries:
    """Time-indexed sequence of intervals, backed by lo/hi arrays.

    ``labels`` are opaque time labels; when present they match the series
    length.  ``==`` compares the endpoints; a series is not hashable.
    """

    lo: np.ndarray
    hi: np.ndarray
    labels: tuple[str, ...] | None = field(default=None)

    def __post_init__(self):
        lo = _as_float_grid(self.lo, "series lo")
        hi = _as_float_grid(self.hi, "series hi")
        if lo.ndim != 1 or hi.ndim != 1:
            raise ShapeError("series endpoints must be 1-dimensional")
        if lo.shape != hi.shape:
            raise ShapeError(f"endpoint lengths differ: {lo.shape[0]} vs {hi.shape[0]}")
        if lo.size == 0:
            raise ShapeError("series must be nonempty")
        if np.any(lo > hi):
            t = int(np.argmax(lo > hi))
            raise InvalidValueError(
                f"series value at position {t} has lo={lo[t]} > hi={hi[t]}"
            )
        labels = self.labels
        if labels is not None:
            labels = tuple(str(s) for s in labels)
            if len(labels) != lo.size:
                raise ShapeError(
                    f"{len(labels)} labels for {lo.size} values"
                )
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return int(self.lo.size)

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntervalSeries):
            return NotImplemented
        return (
            len(self) == len(other)
            and bool(np.array_equal(self.lo, other.lo))
            and bool(np.array_equal(self.hi, other.hi))
        )
