"""Symbolic covariance, its eigendecomposition, and the rank-one factors.

The covariance of two pair matrices weighs the endpoint cross-products
2:1:1:2 (the symbolic-data covariance, kept up to its printed constant).
In the real channels of ``symbolic_channels``, mid C and radius R, that is
S = C C' + R R'/3 = Z Z' with Z = [C, R/sqrt(3)], so interval SSA is real
two-channel SSA.  A fit keeps each eigenvector u_i of S with the
projections w_i = u_i' A, u_i' B of the trajectory grids; component i is
the rank-one pair u_i w_i', never formed as a matrix, and
``Decomposition.component_channels`` diagonal-averages it directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    IntervalSeries,
    InvalidValueError,
    PairMatrix,
    ParameterError,
    ShapeError,
    symbolic_channels,
)
from .embedding import StackingMode, default_window, stack, trajectory

#: Relative eigenvalue cutoff separating genuine rank from round-off.
DEFAULT_RANK_EPS = 1e-10

#: Relative asymmetry tolerated by the eigensolver.
SYMMETRY_RTOL = 1e-12


def _channel_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Z = [C, R/sqrt(3)]: each row of the grids a, b as its two channels side by side."""
    return np.hstack(symbolic_channels(a, b))


def pair_cross_covariance(x: PairMatrix, y: PairMatrix) -> np.ndarray:
    """Cross-covariance block between the rows of two pair matrices.

    Entry (j, j') is (1/6) * sum_q [2 a_j a'_j' + a_j b'_j' + b_j a'_j' + 2 b_j b'_j']
    over columns q, computed as Z_x Z_y' of the channel matrices.
    """
    if x.n_cols != y.n_cols:
        raise ShapeError(
            f"cross-covariance needs equal column counts, got {x.n_cols} and {y.n_cols}"
        )
    return _channel_matrix(x.a, x.b) @ _channel_matrix(y.a, y.b).T


def _gram(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """S = Z Z' of the trajectory grids a and b, read-only and exactly symmetric.

    numpy evaluates ``z @ z.T`` as one symmetric product and fills both
    triangles from it, so S == S.T bitwise.  Overflow is not warned about
    here: ``eigen_sym`` rejects the non-finite entries and names the cause.
    """
    z = _channel_matrix(a, b)
    with np.errstate(over="ignore", invalid="ignore"):
        s = z @ z.T
    s.flags.writeable = False
    return s


def symbolic_covariance(y: PairMatrix) -> np.ndarray:
    """Symbolic covariance matrix S = Z Z' of a pair matrix (see ``_gram``)."""
    return _gram(y.a, y.b)


def stacked_covariance(
    series: Sequence[IntervalSeries], window: int, mode: StackingMode
) -> np.ndarray:
    """Covariance for stacked decomposition: ``symbolic_covariance`` of the
    stacked trajectory matrix, (l*D) x (l*D) vertical and l x l horizontal."""
    return symbolic_covariance(stack(series, window, mode))


@dataclass(frozen=True, eq=False)
class EigenPairs:
    """Full symmetric eigendecomposition with descending eigenvalues.

    ``vectors`` holds orthonormal eigenvectors in columns, sign-normalized so
    each column's entry of largest magnitude is positive.  ``d`` is the rank
    cutoff: the number of eigenvalues exceeding rank_eps * lambda_1.
    """

    values: np.ndarray
    vectors: np.ndarray
    d: int


_UNDERFLOW = (
    "covariance of a nonzero series is zero; it underflows float64 "
    "when the series values are too small"
)


def _checked_eigh(
    s: np.ndarray, rank_eps: float, nonzero: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Descending eigenvalues, sign-normalised eigenvectors and rank d of
    each matrix of the stack s (f, l, l), from one ``np.linalg.eigh`` call.
    The eigenvectors come as a view that reverses ``eigh``'s column order.

    Each matrix must be finite and symmetric within SYMMETRY_RTOL; where
    ``nonzero[i]`` says matrix i is the covariance of a nonzero series, a
    rank of zero means it underflowed.  The first failing matrix of the
    stack raises, as if the matrices were checked one after another.
    """
    if not 0.0 <= rank_eps < 1.0:
        raise ParameterError(f"rank_eps must lie in [0, 1), got {rank_eps}")
    if s.ndim != 3 or s.shape[1] != s.shape[2]:
        raise ShapeError(f"expected a square matrix, got shape {s.shape[1:]}")
    finite = np.isfinite(s).all(axis=(1, 2))
    stop = int(np.argmin(finite)) if not finite.all() else len(s)
    # only a matrix that is not exactly symmetric needs the tolerance test
    for f in np.flatnonzero((s[:stop] != s[:stop].transpose(0, 2, 1)).any(axis=(1, 2))):
        if np.max(np.abs(s[f] - s[f].T)) > SYMMETRY_RTOL * np.max(np.abs(s[f])):
            stop = int(f)
            break
    values, vectors = np.linalg.eigh(s[:stop])
    # Fix signs: largest-magnitude entry of each eigenvector made positive,
    # one matrix at a time and in place, so no temporary of the stack's size.
    cols = np.arange(s.shape[2])
    for v in vectors:
        signs = np.sign(v[np.argmax(np.abs(v), axis=0), cols])
        signs[signs == 0] = 1.0
        v *= signs
    values = values[:, ::-1].copy()
    vectors = vectors[:, :, ::-1]
    lam1 = values[:, :1]
    d = ((lam1 > 0) & (values > rank_eps * lam1)).sum(axis=1)
    if nonzero is not None and np.any((d == 0) & nonzero[:stop]):
        raise InvalidValueError(_UNDERFLOW)
    if stop < len(s):
        if not finite[stop]:
            raise InvalidValueError(
                f"matrix has {np.sum(~np.isfinite(s[stop]))} non-finite entries; a "
                "covariance overflows float64 when the series values are too large"
            )
        raise InvalidValueError("matrix is not symmetric within tolerance")
    return values, vectors, d


def eigen_sym(s: np.ndarray, rank_eps: float = DEFAULT_RANK_EPS) -> EigenPairs:
    """Eigendecompose a symmetric, finite matrix; deterministic for fixed input bytes.

    ``rank_eps`` must lie in [0, 1): the rank d counts eigenvalues above
    rank_eps * lambda_1, so a negative cutoff keeps round-off eigenvalues
    and one of 1 or more keeps none.
    """
    values, vectors, d = _checked_eigh(np.asarray(s, dtype=float)[None], rank_eps)
    values, vectors = values[0], vectors[0].copy()
    values.flags.writeable = False
    vectors.flags.writeable = False
    return EigenPairs(values=values, vectors=vectors, d=int(d[0]))


def _averaged(u: np.ndarray, w: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The last len(counts) antidiagonal means of the rank-one matrix u w':
    the full convolution of u with w, divided by the antidiagonal lengths
    ``counts``.  Every trendline and trendline tail averages through here."""
    return np.convolve(u, w)[-counts.size :] / counts


@dataclass(frozen=True, eq=False)
class Decomposition:
    """Result of the symbolic SVD step for one (possibly stacked) trajectory matrix.

    ``window`` is the per-series window l; for vertical stacking the
    trajectory matrix has window * n_series rows.  ``_wa`` and ``_wb`` hold
    the projections u_i' A and u_i' B of the trajectory grids onto the first
    d eigenvectors, one row per component.
    """

    mode: StackingMode
    window: int
    k: int
    n_series: int
    series_length: int
    eig: EigenPairs
    _wa: np.ndarray
    _wb: np.ndarray

    @property
    def d(self) -> int:
        return self.eig.d

    def series_block(self, series_index: int) -> tuple[slice, slice]:
        """Rows and columns of the trajectory matrix that hold one 1-based
        series: a row band for vertical stacking, a column band for horizontal."""
        if not 1 <= series_index <= self.n_series:
            raise ParameterError(
                f"series index must lie in [1, {self.n_series}], got {series_index}"
            )
        s = series_index - 1
        if self.mode is StackingMode.VERTICAL:
            return slice(s * self.window, (s + 1) * self.window), slice(None)
        if self.mode is StackingMode.HORIZONTAL:
            return slice(None), slice(s * self.k, (s + 1) * self.k)
        return slice(None), slice(None)

    def component_channels(
        self, indices: Sequence[int], series_index: int = 1
    ) -> tuple[np.ndarray, np.ndarray]:
        """Diagonal-averaged endpoint channels of single components, before
        ``phi_arrays``.

        Row r of each (len(indices), n) array belongs to the 1-based component
        i = indices[r]: the antidiagonal means of u_i w_i' over the series'
        block, which for a rank-one matrix are the full convolution of u_i
        with w_i divided by the antidiagonal lengths.  Prefix sums of the rows
        (``np.cumsum(axis=0)``) give grouped trendlines.
        """
        rows, cols = self.series_block(series_index)
        n = self.series_length
        t = np.arange(n)
        counts = np.minimum(np.minimum(t + 1, n - t), min(self.window, self.k))
        ca = np.empty((len(indices), n))
        cb = np.empty((len(indices), n))
        for r, i in enumerate(indices):
            if not 1 <= i <= self.d:
                raise ParameterError(f"component must lie in [1, {self.d}], got {i}")
            u = self.eig.vectors[rows, i - 1]
            ca[r] = _averaged(u, self._wa[i - 1, cols], counts)
            cb[r] = _averaged(u, self._wb[i - 1, cols], counts)
        return ca, cb


def _build(
    a: np.ndarray,
    b: np.ndarray,
    s: np.ndarray,
    mode: StackingMode,
    window: int,
    n_series: int,
    series_length: int,
    rank_eps: float,
) -> Decomposition:
    """The one fit: eigenpairs of S = ``_gram(a, b)``, projections of a, b."""
    eig = eigen_sym(s, rank_eps=rank_eps)
    if eig.d == 0 and (a.any() or b.any()):
        raise InvalidValueError(_UNDERFLOW)
    u = eig.vectors[:, : eig.d]
    wa = u.T @ a
    wb = u.T @ b
    wa.flags.writeable = False
    wb.flags.writeable = False
    k = series_length - window + 1
    return Decomposition(
        mode=mode,
        window=window,
        k=k,
        n_series=n_series,
        series_length=series_length,
        eig=eig,
        _wa=wa,
        _wb=wb,
    )


def decompose(
    y: IntervalSeries, window: int | None = None, rank_eps: float = DEFAULT_RANK_EPS
) -> Decomposition:
    """Univariate decomposition: embed, build S, eigendecompose."""
    if window is None:
        window = default_window(len(y))
    mat = trajectory(y, window)
    return _build(
        mat.a, mat.b, symbolic_covariance(mat),
        StackingMode.UNIVARIATE, int(window), 1, len(y), rank_eps,
    )


def decompose_stacked(
    series: Sequence[IntervalSeries],
    window: int | None = None,
    mode: StackingMode = StackingMode.VERTICAL,
    rank_eps: float = DEFAULT_RANK_EPS,
) -> Decomposition:
    """Multivariate decomposition over vertically or horizontally stacked trajectories."""
    series = list(series)
    if not series:
        raise ParameterError("need at least one series to decompose")
    if len(series) == 1 and mode is StackingMode.UNIVARIATE:
        return decompose(series[0], window=window, rank_eps=rank_eps)
    if mode is StackingMode.UNIVARIATE:
        raise ParameterError("univariate mode is only valid for a single series")
    n = len(series[0])
    if window is None:
        window = default_window(n, len(series), mode)
    mat = stack(series, window, mode)
    return _build(
        mat.a, mat.b, symbolic_covariance(mat), mode, int(window), len(series), n, rank_eps
    )
