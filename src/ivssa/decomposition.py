"""Symbolic covariance, its eigendecomposition, and elementary pair matrices.

The covariance of two pair matrices weighs the endpoint cross-products
2:1:1:2 (the symbolic-data covariance, kept up to its printed constant).
In the real channels of ``symbolic_channels``, mid C and radius R, that is
S = C C' + R R'/3 = Z Z' with Z = [C, R/sqrt(3)], so interval SSA is real
two-channel SSA.  The eigenbasis of S decomposes the trajectory matrix
into rank-one pair matrices whose partial sums reconstruct the signal.
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


def _channel_matrix(x: PairMatrix) -> np.ndarray:
    """Z = [C, R/sqrt(3)]: each row of x as its two channels side by side."""
    return np.hstack(symbolic_channels(x.a, x.b))


def pair_cross_covariance(x: PairMatrix, y: PairMatrix) -> np.ndarray:
    """Cross-covariance block between the rows of two pair matrices.

    Entry (j, j') is (1/6) * sum_q [2 a_j a'_j' + a_j b'_j' + b_j a'_j' + 2 b_j b'_j']
    over columns q, computed as Z_x Z_y' of the channel matrices.
    """
    if x.n_cols != y.n_cols:
        raise ShapeError(
            f"cross-covariance needs equal column counts, got {x.n_cols} and {y.n_cols}"
        )
    return _channel_matrix(x) @ _channel_matrix(y).T


def symbolic_covariance(y: PairMatrix) -> np.ndarray:
    """Symbolic covariance matrix S = Z Z' of a pair matrix, exactly symmetric.

    numpy evaluates ``z @ z.T`` as one symmetric product and fills both
    triangles from it, so S == S.T bitwise.  Overflow is not warned about
    here: ``eigen_sym`` rejects the non-finite entries and names the cause.
    """
    z = _channel_matrix(y)
    with np.errstate(over="ignore", invalid="ignore"):
        s = z @ z.T
    s.flags.writeable = False
    return s


def stacked_covariance(
    series: Sequence[IntervalSeries], window: int, mode: StackingMode
) -> np.ndarray:
    """Covariance for stacked decomposition: ``symbolic_covariance`` of the
    stacked trajectory matrix, (l*D) x (l*D) vertical and l x l horizontal."""
    return symbolic_covariance(stack(series, window, mode))


@dataclass(frozen=True)
class EigenPairs:
    """Full symmetric eigendecomposition with descending eigenvalues.

    ``vectors`` holds orthonormal eigenvectors in columns, sign-normalized so
    each column's entry of largest magnitude is positive.  ``d`` is the rank
    cutoff: the number of eigenvalues exceeding rank_eps * lambda_1.
    """

    values: np.ndarray
    vectors: np.ndarray
    d: int

    @property
    def size(self) -> int:
        return int(self.values.size)


def eigen_sym(s: np.ndarray, rank_eps: float = DEFAULT_RANK_EPS) -> EigenPairs:
    """Eigendecompose a symmetric, finite matrix; deterministic for fixed input bytes."""
    s = np.asarray(s, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {s.shape}")
    if not np.all(np.isfinite(s)):
        raise InvalidValueError(
            f"matrix has {np.sum(~np.isfinite(s))} non-finite entries; a covariance "
            "overflows float64 when the series values are too large"
        )
    scale = float(np.max(np.abs(s))) if s.size else 0.0
    if scale > 0 and float(np.max(np.abs(s - s.T))) > SYMMETRY_RTOL * scale:
        raise InvalidValueError("matrix is not symmetric within tolerance")
    values, vectors = np.linalg.eigh(s)
    values = values[::-1].copy()
    vectors = vectors[:, ::-1].copy()
    # Fix signs: largest-magnitude entry of each eigenvector made positive.
    lead = np.argmax(np.abs(vectors), axis=0)
    signs = np.sign(vectors[lead, np.arange(vectors.shape[1])])
    signs[signs == 0] = 1.0
    vectors *= signs
    lam1 = float(values[0]) if values.size else 0.0
    if lam1 <= 0:
        d = 0
    else:
        d = int(np.sum(values > rank_eps * lam1))
    values.flags.writeable = False
    vectors.flags.writeable = False
    return EigenPairs(values=values, vectors=vectors, d=d)


def elementary_matrices(y: PairMatrix, eig: EigenPairs) -> list[PairMatrix]:
    """Rank-one elementary pair matrices Y_1..Y_d for a trajectory matrix.

    Y_i projects both component grids onto the i-th eigenvector:
    Y_i = u_i (u_i^T A), u_i (u_i^T B).  Their sum over i <= d recovers Y.
    """
    if eig.vectors.shape[0] != y.n_rows:
        raise ShapeError(
            f"eigenvectors of length {eig.vectors.shape[0]} do not match "
            f"{y.n_rows} matrix rows"
        )
    u = eig.vectors[:, : eig.d]
    wa = u.T @ y.a
    wb = u.T @ y.b
    return [
        PairMatrix(np.outer(u[:, i], wa[i]), np.outer(u[:, i], wb[i]))
        for i in range(eig.d)
    ]


@dataclass(frozen=True)
class Decomposition:
    """Result of the symbolic SVD step for one (possibly stacked) trajectory matrix.

    ``window`` is the per-series window l; for vertical stacking the
    trajectory matrix has window * n_series rows.  Elementary matrices are
    materialized on demand from the stored eigenbasis projections.
    """

    mode: StackingMode
    window: int
    k: int
    n_series: int
    series_length: int
    trajectory: PairMatrix
    eig: EigenPairs
    _wa: np.ndarray
    _wb: np.ndarray

    @property
    def d(self) -> int:
        return self.eig.d

    def elementary_matrix(self, component: int) -> PairMatrix:
        """Elementary pair matrix for a 1-based component index."""
        if not 1 <= component <= self.d:
            raise ParameterError(
                f"component must lie in [1, {self.d}], got {component}"
            )
        i = component - 1
        u = self.eig.vectors[:, i]
        return PairMatrix(np.outer(u, self._wa[i]), np.outer(u, self._wb[i]))

    @property
    def elementary(self) -> list[PairMatrix]:
        """All elementary matrices Y_1..Y_d (built fresh on each access)."""
        return [self.elementary_matrix(i) for i in range(1, self.d + 1)]

    def grouped_arrays(self, indices: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        """Component grids of sum(Y_i, i in indices) for 1-based indices."""
        idx = [i - 1 for i in indices]
        u = self.eig.vectors[:, idx]
        return u @ self._wa[idx], u @ self._wb[idx]

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
        """Diagonal-averaged endpoint channels (before phi) of single components.

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
            ca[r] = np.convolve(u, self._wa[i - 1, cols]) / counts
            cb[r] = np.convolve(u, self._wb[i - 1, cols]) / counts
        return ca, cb


def _build(
    mat: PairMatrix,
    mode: StackingMode,
    window: int,
    n_series: int,
    series_length: int,
    s: np.ndarray,
    rank_eps: float,
) -> Decomposition:
    eig = eigen_sym(s, rank_eps=rank_eps)
    if eig.d == 0 and (mat.a.any() or mat.b.any()):
        raise InvalidValueError(
            "covariance of a nonzero series is zero; it underflows float64 "
            "when the series values are too small"
        )
    u = eig.vectors[:, : eig.d]
    wa = u.T @ mat.a
    wb = u.T @ mat.b
    wa.flags.writeable = False
    wb.flags.writeable = False
    k = series_length - window + 1
    return Decomposition(
        mode=mode,
        window=window,
        k=k,
        n_series=n_series,
        series_length=series_length,
        trajectory=mat,
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
        mat, StackingMode.UNIVARIATE, int(window), 1, len(y), symbolic_covariance(mat), rank_eps
    )


def decompose_stacked(
    series: Sequence[IntervalSeries],
    window: int | None = None,
    mode: StackingMode = StackingMode.VERTICAL,
    rank_eps: float = DEFAULT_RANK_EPS,
) -> Decomposition:
    """Multivariate decomposition over vertically or horizontally stacked trajectories."""
    series = list(series)
    if len(series) == 1 and mode is StackingMode.UNIVARIATE:
        return decompose(series[0], window=window, rank_eps=rank_eps)
    if mode is StackingMode.UNIVARIATE:
        raise ParameterError("univariate mode is only valid for a single series")
    n = len(series[0])
    if window is None:
        window = default_window(n, len(series), mode)
    mat = stack(series, window, mode)
    return _build(
        mat, mode, int(window), len(series), n, symbolic_covariance(mat), rank_eps
    )
