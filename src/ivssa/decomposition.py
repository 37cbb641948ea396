"""Symbolic covariance, its eigendecomposition, and the rank-one factors.

The covariance of two pair matrices weighs the endpoint cross-products
2:1:1:2 (the symbolic-data covariance, kept up to its printed constant).
In the real channels of ``symbolic_channels``, mid C and radius R, that is
S = C C' + R R'/3 = Z Z' with Z = [C, R/sqrt(3)], so interval SSA is real
two-channel SSA.  Every fit, univariate or stacked, takes Z from
``embedding._embed`` over the channel series and keeps each eigenvector
u_i of S with its projection u_i' Z, mid part then radius part.
Component i is the rank-one matrix u_i (u_i' Z), never formed;
``Decomposition.component_channels`` diagonal-averages its mid and radius
parts, maps them back to endpoints (``channel_endpoints``) and keeps the
leading components 1..m that every reader asks for, so each component of
a fit is averaged once.  ``_prefix_fits`` gives the fits of a series'
prefixes in batches, each bit for bit that of ``decompose``.

A fit whose S has fewer than ``_LAZY_ROWS`` rows solves for every
eigenpair (``eigen_sym``).  A larger fit computes only what is read
(``_build``): block subspace iteration multiplying by Z (Z' Q), by FFT
while it converges and directly where it certifies, finds the leading
eigenvectors up to a clear spectral gap j, whose eigenvalues lie provably
above the rank cutoff, so every index up to j is known to be at most d.
The first read of d, of the eigenvalues or of an eigenvector past the gap
forms S for one complete solve for all three.  Every fit projects on first
read, a block of eigenvectors at a time: a large fit its gap block, then
blocks of ``_PROJECTION_BLOCK`` past it; a complete solve blocks of
``_PROJECTION_BLOCK`` from the first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

from .core import (
    IntervalSeries,
    InvalidValueError,
    PairMatrix,
    ParameterError,
    ShapeError,
    _integer,
    channel_endpoints,
    symbolic_channels,
)
from .embedding import StackingMode, _embed, default_window, stack

#: Relative eigenvalue cutoff separating genuine rank from round-off.
DEFAULT_RANK_EPS = 1e-10

#: Relative asymmetry tolerated by the eigensolver.
SYMMETRY_RTOL = 1e-12

#: Rows of S from which a fit solves only for what is read.  On a series
#: whose scan reads past the gap, the block iteration is wasted beside the
#: complete solve; below this size that waste outweighs the eigenpairs and
#: projections it saves.
_LAZY_ROWS = 400

#: Block subspace iteration: columns of the block, the last _GUARD of
#: which only speed up convergence and hold no gap; a gap is
#: theta_{j+1} <= _GAP_RATIO * theta_j; at most _PASSES passes.
_BLOCK = 8
_GUARD = 3
_GAP_RATIO = 0.1
_PASSES = 12

#: Components are projected this many at a time (past a large fit's gap block).
_PROJECTION_BLOCK = 32

#: Bytes of channel matrices Z and covariances S that one batch of prefix
#: fits (``_prefix_fits``) holds: a series with more fits runs in
#: consecutive batches of ascending fit length, so the memory of the grid
#: search does not grow with the number of fits.
_CHUNK_BYTES = 8 << 20

#: A gap value theta_j must exceed the rank cutoff by this many l * eps *
#: trace S, which covers the rounding of the Ritz values and of the
#: complete solve's ``eigh``, so the rank d that solve counts is at least j.
_RANK_MARGIN = 16

#: A Ritz pair (theta_i, x_i) up to a gap j has converged once
#: ||S x_i - theta_i x_i|| is at most this times theta_i - theta_{j+1}: that
#: bounds the part of x_i along the eigenvectors past the gap (Davis-Kahan),
#: so the columns a full solve adds later stay orthogonal to it.
_ANGLE_TOL = 1e-13

#: FFT passes (rounding relative to the largest term) hand over to direct
#: ones once the largest gap's residuals meet this many times _ANGLE_TOL.  On
#: 150 ``long`` bench inputs (l = 501; 0.25 ms per FFT pass, 0.5 ms direct)
#: 1e3 took 4.2 FFT and 1.0 direct passes per fit, 1e2 5.0 and 1.0, 1e4 4.0 and 1.2.
_SWITCH = 1e3


def _pair_channels(y: PairMatrix) -> np.ndarray:
    """Channel matrix Z = [C, R/sqrt(3)] of a pair matrix's grids."""
    return np.hstack(symbolic_channels(y.a, y.b))


def pair_cross_covariance(x: PairMatrix, y: PairMatrix) -> np.ndarray:
    """Cross-covariance block between the rows of two pair matrices.

    Entry (j, j') is (1/6) * sum_q [2 a_j a'_j' + a_j b'_j' + b_j a'_j' + 2 b_j b'_j']
    over columns q, computed as Z_x Z_y' of the channel matrices.
    """
    if x.n_cols != y.n_cols:
        raise ShapeError(
            f"cross-covariance needs equal column counts, got {x.n_cols} and {y.n_cols}"
        )
    return _pair_channels(x) @ _pair_channels(y).T


def _symmetric_product(z: np.ndarray) -> np.ndarray:
    """S = Z Z', read-only and exactly symmetric.

    numpy evaluates ``z @ z.T`` as one symmetric product and fills both
    triangles from it, so S == S.T bitwise.  Overflow is not warned about
    here: ``eigen_sym`` rejects the non-finite entries and names the cause.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        s = z @ z.T
    s.flags.writeable = False
    return s


def symbolic_covariance(y: PairMatrix) -> np.ndarray:
    """Symbolic covariance matrix S = Z Z' of a pair matrix, Z = [C, R/sqrt(3)]
    of its grids (see ``_symmetric_product``)."""
    return _symmetric_product(_pair_channels(y))


def stacked_covariance(
    series: Sequence[IntervalSeries], window: int, mode: StackingMode
) -> np.ndarray:
    """Covariance for stacked decomposition: ``symbolic_covariance`` of the
    stacked trajectory matrix, (l*D) x (l*D) vertical and l x l horizontal."""
    return symbolic_covariance(stack(series, window, mode))


@dataclass(frozen=True, eq=False, init=False)
class EigenPairs:
    """Symmetric eigendecomposition with descending eigenvalues.

    ``vectors`` holds orthonormal eigenvectors in columns, sign-normalized so
    each column's entry of largest magnitude is positive.  ``d`` is the rank
    cutoff: the number of eigenvalues exceeding rank_eps * lambda_1.

    ``EigenPairs(values, vectors, d)`` holds a complete solve.  The pairs of
    a large fit (see ``_build``) hold Z, rank_eps and the leading
    eigenvectors of S = Z Z' up to a gap j <= d.  The first read of ``d``,
    of ``values`` or of a column past j forms S for one ``eigen_sym`` and
    keeps its values, its d and its columns past j after the known block,
    outside the fields, so a read changes no field and each output is the
    same whatever was read first.  ``leading(m)`` gives the first m columns
    and solves for nothing it does not return; ``reach(i)`` says where a
    read from i may stop, and ``within_rank(i)`` whether 1 <= i <= d.
    """

    _known: np.ndarray
    _z: np.ndarray | None
    _rank_eps: float | None

    def __init__(self, values: np.ndarray | None, vectors: np.ndarray, d: int | None,
                 z: np.ndarray | None = None, rank_eps: float | None = None):
        """A complete solve, or, with Z and rank_eps given and ``values``
        and ``d`` None, the leading eigenvectors of S = Z Z' up to a gap."""
        # a frozen instance's fields, set past its __setattr__
        self.__dict__.update(_known=vectors if d is None else vectors[:, :d], _z=z, _rank_eps=rank_eps)
        if d is not None:
            self.__dict__["_solved"] = (values, vectors, d)

    @cached_property
    def _solved(self) -> tuple[np.ndarray, np.ndarray, int]:
        """(values, vectors, d) of the complete solve of S, formed here and
        dropped after it, whose columns past the gap follow the known block."""
        full = eigen_sym(_symmetric_product(self._z), self._rank_eps)
        vectors = np.hstack((self._known, full.vectors[:, self._known.shape[1] :]))
        vectors.flags.writeable = False
        return full.values, vectors, full.d

    @property
    def values(self) -> np.ndarray:
        return self._solved[0]

    @property
    def vectors(self) -> np.ndarray:
        return self._solved[1]

    @property
    def d(self) -> int:
        return self._solved[2]

    def reach(self, i: int) -> int:
        """Where a read from index i may stop: the gap j while i <= j, else d."""
        j = self._known.shape[1]
        return j if i <= j else self.d

    def within_rank(self, i: int) -> bool:
        """Whether 1 <= i <= d.  The known leading columns all lie within
        the rank, so d is read only for an i past them."""
        return 1 <= i <= self.reach(i)

    def leading(self, m: int) -> np.ndarray:
        """The first m eigenvector columns, (rows, m)."""
        if m <= self._known.shape[1]:
            return self._known[:, :m]
        return self.vectors[:, :m]


_UNDERFLOW = (
    "covariance of a nonzero series is zero; it underflows float64 "
    "when the series values are too small"
)


def _component_index(eig: EigenPairs, i) -> int:
    """The 1-based component i as an int, if it is an integer within the rank of eig."""
    i = _integer(i, "a component index")
    if not eig.within_rank(i):
        raise ParameterError(f"component must lie in [1, {eig.d}], got {i}")
    return i


def _check_rank_eps(rank_eps: float) -> None:
    if not 0.0 <= rank_eps < 1.0:
        raise ParameterError(f"rank_eps must lie in [0, 1), got {rank_eps}")


def _rank_of(values: np.ndarray, rank_eps: float) -> np.ndarray:
    """Rank d of descending eigenvalues (..., l): the count above rank_eps * lambda_1."""
    lam1 = values[..., :1]
    return ((lam1 > 0) & (values > rank_eps * lam1)).sum(axis=-1)


def _fix_signs(v: np.ndarray) -> None:
    """Make the largest-magnitude entry of each column of v (..., rows,
    columns) positive, in place; of two with one magnitude, the first.  The
    column maxima and minima decide, so no temporary of v's size is formed."""
    hi, lo = v.max(axis=-2), -v.min(axis=-2)
    signs = np.where(hi < lo, -1.0, 1.0)
    for at in zip(*np.nonzero(hi == lo)):
        col = v[(*at[:-1], slice(None), at[-1])]
        signs[at] = -1.0 if col[np.argmax(np.abs(col))] < 0 else 1.0
    v *= signs[..., None, :]


def _checked_eigh(
    s: np.ndarray, rank_eps: float, nonzero: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Descending eigenvalues, sign-normalised eigenvectors and rank d of
    each matrix of the stack s (f, l, l), from one ``np.linalg.eigh`` call.
    The eigenvectors come as a view that reverses ``eigh``'s column order.

    Each matrix must be nonempty, finite and symmetric within
    SYMMETRY_RTOL; where ``nonzero[i]`` says matrix i is the covariance of a
    nonzero series, a rank of zero means it underflowed.  The first failing
    matrix of the stack raises, as if the matrices were checked one after
    another.
    """
    _check_rank_eps(rank_eps)
    if s.ndim != 3 or s.shape[1] != s.shape[2] or s.shape[1] == 0:
        raise ShapeError(f"expected a nonempty square matrix, got shape {s.shape[1:]}")
    finite = np.isfinite(s).all(axis=(1, 2))
    stop = int(np.argmin(finite)) if not finite.all() else len(s)
    # only a matrix that is not exactly symmetric needs the tolerance test
    for f in np.flatnonzero((s[:stop] != s[:stop].transpose(0, 2, 1)).any(axis=(1, 2))):
        if np.max(np.abs(s[f] - s[f].T)) > SYMMETRY_RTOL * np.max(np.abs(s[f])):
            stop = int(f)
            break
    values, vectors = np.linalg.eigh(s[:stop])
    _fix_signs(vectors)
    values = values[:, ::-1].copy()
    vectors = vectors[:, :, ::-1]
    d = _rank_of(values, rank_eps)
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


def _pairs(values: np.ndarray, vectors: np.ndarray, d: np.ndarray) -> list[EigenPairs]:
    """The complete solve of each matrix of a ``_checked_eigh`` stack,
    read-only, its vectors C-contiguous in one copy of the stack."""
    vectors = vectors.copy()
    values.flags.writeable = vectors.flags.writeable = False
    return [EigenPairs(v, u, int(k)) for v, u, k in zip(values, vectors, d)]


def eigen_sym(s: np.ndarray, rank_eps: float = DEFAULT_RANK_EPS) -> EigenPairs:
    """Eigendecompose a symmetric, finite matrix; deterministic for fixed input bytes.

    ``rank_eps`` must lie in [0, 1): the rank d counts eigenvalues above
    rank_eps * lambda_1, so a negative cutoff keeps round-off eigenvalues
    and one of 1 or more keeps none.
    """
    return _pairs(*_checked_eigh(np.asarray(s, dtype=float)[None], rank_eps))[0]


class _Hankel:
    """Products with a large fit's Z by FFT, diag S and trace S.

    Band (r, c) of Z is the window H_ij = v_{i+j} of one channel series v:
    series r's channel c stacked vertically, else channel c // D of series
    c % D.  (H'q)_j and (H w)_i are entries l-1.. and k-1.. of v convolved
    with the reversed q and w, which a cyclic convolution of n or more
    points leaves unwrapped (Korobeynikov 2010).
    """

    def __init__(self, channels: Sequence, window: int, mode: StackingMode):
        v = np.array(channels)  # (D, 2, n)
        if mode is not StackingMode.VERTICAL:
            v = v.transpose(1, 0, 2).reshape(1, -1, v.shape[-1])
        n = v.shape[-1]
        self._n, self._size = n, 1 << (n - 1).bit_length()  # a fast FFT length
        self._f = np.fft.rfft(v, self._size)  # (row bands, column bands, frequencies)
        with np.errstate(over="ignore", invalid="ignore"):
            sums = np.cumsum(np.pad(np.square(v).sum(axis=1), ((0, 0), (1, 0))), axis=1)
            self.diag = (sums[:, n - window + 1 :] - sums[:, :window]).ravel()
            self.trace = self.diag.sum()  # ||Z||_F^2

    def dot(self, x: np.ndarray, transpose: bool = False) -> np.ndarray:
        """Z X, or Z' X: band o sums X's bands i correlated with series (o, i)."""
        f = self._f if transpose else self._f.transpose(1, 0, 2)  # (in, out, frequencies)
        x = x.T.reshape(x.shape[1], len(f), 1, -1)
        y = (f * np.fft.rfft(x[..., ::-1], self._size)).sum(axis=1)
        return np.fft.irfft(y, self._size)[..., x.shape[-1] - 1 : self._n].reshape(len(x), -1).T


def _gap_block(z: np.ndarray, op: _Hankel, rank_eps: float) -> np.ndarray | None:
    """The leading eigenvectors of S = Z Z' up to its last clear spectral
    gap within one block, sign-normalised, or None.

    Block subspace iteration with Rayleigh-Ritz (Halko, Martinsson & Tropp,
    SIAM Review 2011), started from the _BLOCK columns of S with the
    largest diagonal entries.  Each pass orthonormalises the block,
    multiplies it by S = Z Z' and rotates it onto the Ritz vectors.  A gap
    is an index j among the first _BLOCK - _GUARD with theta_{j+1} <=
    _GAP_RATIO * theta_j and theta_j above the rank cutoff by _RANK_MARGIN
    (so j <= d).  The passes multiply by FFT (``_Hankel``) until the largest
    gap's residuals meet _SWITCH * _ANGLE_TOL, then, and in the last pass,
    by Z (Z' Q) directly.  Only a direct pass keeps the first j columns,
    once their residuals meet _ANGLE_TOL, for the largest gap j of the pass
    or, in the last pass, the largest converged one.  None without such a
    gap, or when trace S is zero or not finite.
    """
    if not 0 < op.trace < np.inf:
        return None
    x = op.dot(z[np.argsort(op.diag, kind="stable")[::-1][:_BLOCK]].T)
    top = _BLOCK - _GUARD
    # lambda_1 <= trace S, as S = Z Z' is positive semidefinite
    floor = (rank_eps + _RANK_MARGIN * len(z) * np.finfo(float).eps) * op.trace
    direct = False
    for p in range(_PASSES):
        direct |= p == _PASSES - 1
        q = np.linalg.qr(x)[0]
        sq = z @ (z.T @ q) if direct else op.dot(op.dot(q, transpose=True))
        theta, v = np.linalg.eigh(q.T @ sq)
        theta, v = theta[::-1], v[:, ::-1]
        x, sx = q @ v, sq @ v
        gaps = np.flatnonzero(
            (theta[1 : top + 1] <= _GAP_RATIO * theta[:top])
            & (theta[:top] > floor)
        ) + 1
        candidates = gaps[::-1] if p == _PASSES - 1 else gaps[-1:]
        if candidates.size:
            residual = np.linalg.norm(sx[:, :top] - x[:, :top] * theta[:top], axis=0)
            tol = _ANGLE_TOL if direct else _SWITCH * _ANGLE_TOL
            met = [j for j in candidates if np.all(residual[:j] <= tol * (theta[:j] - theta[j]))]
            if met and direct:
                lead = x[:, : met[0]].copy()
                _fix_signs(lead)
                lead.flags.writeable = False
                return lead
            direct |= bool(met)
        x = sx
    return None


def _averaged(
    u: Sequence[np.ndarray],
    mid: Sequence[np.ndarray],
    radius: Sequence[np.ndarray],
    counts: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Endpoint channels (a, b), (len(u), len(counts)) each, of the
    antidiagonal means of the rank-one components u_i [mid_i, radius_i]'.
    Each channel is the full convolution of u_i with its projection row
    divided by the antidiagonal lengths ``counts``, and
    ``channel_endpoints`` maps the two to endpoints.  Every trendline
    averages through here."""
    c = np.empty((len(u), counts.size))
    r = np.empty_like(c)
    # np.convolve(u_i, row) correlates the longer of the two with the
    # reversed shorter; doing so here skips its per-call argument handling,
    # 3-4% of an ``oos`` bench request (2-core x86, in-process pairs)
    if len(u) and len(u[0]) < len(mid[0]):
        for i, ui in enumerate(u):
            ui = ui[::-1]
            c[i] = np.correlate(mid[i], ui, "full")
            r[i] = np.correlate(radius[i], ui, "full")
    else:
        for i, ui in enumerate(u):
            c[i] = np.correlate(ui, mid[i][::-1], "full")
            r[i] = np.correlate(ui, radius[i][::-1], "full")
    return channel_endpoints(c / counts, r / counts)


@dataclass(frozen=True, eq=False)
class Decomposition:
    """Result of the symbolic SVD step for one (possibly stacked) trajectory matrix.

    ``window`` is the per-series window l; for vertical stacking the
    trajectory matrix has window * n_series rows.  ``_w`` keeps the
    projections u_i' Z of the channel matrix Z (``embedding._embed``), one
    row per component, by the first component of each block that
    ``_projections`` computed.  Z itself (``_z``) is kept, as every block is
    projected on its first read.  ``_rows`` maps a series index to the
    averaged endpoint channels (a, b) of its components 1..count, two
    (count, n) arrays, so every reader averages a component once per fit.
    """

    mode: StackingMode
    window: int
    k: int
    n_series: int
    series_length: int
    eig: EigenPairs
    _z: np.ndarray
    _w: dict = field(default_factory=dict, repr=False)
    _rows: dict = field(default_factory=dict, repr=False)

    @property
    def d(self) -> int:
        return self.eig.d

    def series_block(self, series_index: int) -> tuple[slice, slice]:
        """Rows and columns of the trajectory matrix that hold one 1-based
        series: a row band for vertical stacking, a column band for horizontal."""
        s = _integer(series_index, "series index", 1) - 1
        if s >= self.n_series:
            raise ParameterError(
                f"series index must lie in [1, {self.n_series}], got {series_index}"
            )
        if self.mode is StackingMode.VERTICAL:
            return slice(s * self.window, (s + 1) * self.window), slice(None)
        if self.mode is StackingMode.HORIZONTAL:
            return slice(None), slice(s * self.k, (s + 1) * self.k)
        return slice(None), slice(None)

    def _projections(self, first: int, top: int) -> np.ndarray:
        """Rows u_i' Z of the 0-based components first..top-1.

        Rows are projected a block at a time, on the first read of the
        block, with one product u' Z: a large fit's gap block j, whose
        eigenvectors are known without a further solve, then consecutive
        blocks of _PROJECTION_BLOCK components (from the first for a complete
        solve), up to d.  So a row has the same bits whatever was read before it."""
        j = self.eig._known.shape[1] if self.eig._z is not None else 0
        rows = []
        while first < top:
            start = 0 if first < j else first - (first - j) % _PROJECTION_BLOCK
            if start not in self._w:
                stop = j if first < j else min(start + _PROJECTION_BLOCK, self.d)
                self._w[start] = self.eig.leading(stop)[:, start:].T @ self._z
            rows.append(self._w[start][first - start : top - start])
            first = start + len(self._w[start])
        return rows[0] if len(rows) == 1 else np.concatenate(rows)

    def kept(self, series_index: int = 1) -> int:
        """How many leading components of a series are averaged and kept,
        so that a read of components 1..kept averages nothing."""
        return len(self._rows.get(int(series_index), ((),))[0])

    def component_channels(
        self, indices: Iterable[int], series_index: int = 1
    ) -> tuple[np.ndarray, np.ndarray]:
        """Diagonal-averaged endpoint channels of single components, before
        ``phi_arrays``.

        Row r of each (len(indices), n) array belongs to the 1-based component
        i = indices[r]: the antidiagonal means of u_i (u_i' Z) over the
        series' block, channel by channel (``_averaged``).  Prefix sums of the
        rows (``np.cumsum(axis=0)``) give grouped trendlines.

        ``_rows`` keeps the rows of components 1..count; a read past count
        averages count+1..max(indices) in one call, and reads return copies.
        ``_averaged`` treats each row on its own, so a kept row has the bits
        a fresh one would, whatever was read before it.  A ``range`` is
        checked by its ends and read as a slice, any other iterable index by
        index.
        """
        rows, cols = self.series_block(series_index)
        ranged = isinstance(indices, range)
        checked = [indices[0], indices[-1]] if ranged and indices else list(indices)
        # the largest index first, so a grouping past d projects nothing
        top = _component_index(self.eig, max(checked)) if checked else 0
        idx = [_component_index(self.eig, i) - 1 for i in checked]
        if ranged:  # one slice for a range that steps up
            start, stop, step = indices.start - 1, indices.stop - 1, indices.step
            idx = slice(start, stop, step) if indices and step > 0 else np.arange(start, stop, step)
        kept = self._rows.get(int(series_index))
        count = len(kept[0]) if kept else 0
        if top > count:
            w = self._projections(count, top).reshape(top - count, 2, -1)[..., cols]
            u = self.eig.leading(top)[rows, count:].T
            new = _averaged(u, w[:, 0], w[:, 1], self._counts)
            kept = tuple(np.concatenate(pair) for pair in zip(kept, new)) if kept else new
            self._rows[int(series_index)] = kept
        a, b = kept or (np.empty((0, self.series_length)),) * 2
        return a[idx].copy(), b[idx].copy()

    @cached_property
    def _counts(self) -> np.ndarray:
        """Antidiagonal lengths of a series' block, one per time index; kept
        because the whiteness scan reads a few components per call."""
        head = np.minimum(np.arange(1, self.series_length + 1), min(self.window, self.k))
        return np.minimum(head, head[::-1])


def _build(
    series: Sequence[IntervalSeries], window: int, mode: StackingMode, rank_eps: float
) -> Decomposition:
    """The one fit: Z of the series' channels (``_embed``) and the
    eigenpairs of S = Z Z'; the projections u' Z follow on first read.
    Below _LAZY_ROWS rows, or without a converged gap (``_gap_block``), the
    eigenpairs are ``eigen_sym``'s, which also raises its errors."""
    channels = [symbolic_channels(y.lo, y.hi) for y in series]
    z = _embed(channels, window, mode)
    lead = None
    if len(z) >= _LAZY_ROWS:
        _check_rank_eps(rank_eps)
        lead = _gap_block(z, _Hankel(channels, window, mode), rank_eps)
    eig = (eigen_sym(_symmetric_product(z), rank_eps) if lead is None
           else EigenPairs(None, lead, None, z, rank_eps))
    # d >= 1, which a gap block proves
    if not eig.within_rank(1) and any(y.lo.any() or y.hi.any() for y in series):
        raise InvalidValueError(_UNDERFLOW)
    n = len(series[0])
    return Decomposition(
        mode=mode,
        window=window,
        k=n - window + 1,
        n_series=len(series),
        series_length=n,
        eig=eig,
        _z=z,
    )


def decompose(
    y: IntervalSeries, window: int | None = None, rank_eps: float = DEFAULT_RANK_EPS
) -> Decomposition:
    """Univariate decomposition: embed, build S, eigendecompose."""
    if window is None:
        window = default_window(len(y))
    return _build([y], _integer(window, "window"), StackingMode.UNIVARIATE, rank_eps)


def _prefix_fits(
    lo: np.ndarray, hi: np.ndarray, window: int, fits: Sequence[int], rank_eps: float
) -> Iterator[list[Decomposition]]:
    """The fits ``decompose(y[:w], window, rank_eps)`` of the prefixes of
    the series y = (lo, hi), w in ``fits`` ascending, bit for bit, in
    consecutive lists holding at most _CHUNK_BYTES of Z and S (at least one
    fit each).  Only the list handed over holds its fits, so a reader that
    drops each fit from it once read frees the fit's Z and rows then.

    Below _LAZY_ROWS a list embeds each prefix once, keeps its Z for the
    fit and solves the list's stacked S with one ``_checked_eigh``: a
    ``decompose`` call per prefix pays the per-call costs of ``eigh`` and
    its checks once per fit, which made the ``oos`` bench workload 36%
    slower (2-core x86, OpenBLAS).  From _LAZY_ROWS on each fit is
    ``_build``'s.  A failing fit raises what ``decompose`` would raise on
    it, once the lists before it are read."""
    c, r = symbolic_channels(lo, hi)
    nonzero = np.logical_or.accumulate((lo != 0) | (hi != 0))
    # S (l x l) and Z (l x 2k) of the longest fit
    size = max(1, _CHUNK_BYTES // (8 * window * (2 * fits[-1] - window + 2)))
    for start in range(0, len(fits), size):
        chunk = fits[start : start + size]
        if window >= _LAZY_ROWS:
            yield [_build([IntervalSeries(lo[:w], hi[:w])], window, StackingMode.UNIVARIATE,
                          rank_eps) for w in chunk]
            continue
        zs, s = [], np.empty((len(chunk), window, window))
        for f, w in enumerate(chunk):
            zs.append(_embed([(c[:w], r[:w])], window, StackingMode.UNIVARIATE))
            s[f] = _symmetric_product(zs[f])
        eig = _checked_eigh(s, rank_eps, nonzero[np.asarray(chunk) - 1])
        del s  # as large as the eigenvectors
        decs = [Decomposition(StackingMode.UNIVARIATE, window, w - window + 1, 1, w, pairs, z)
                for w, pairs, z in zip(chunk, _pairs(*eig), zs)]
        del eig, zs
        yield decs


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
    if window is None:
        window = default_window(len(series[0]), len(series), mode)
    return _build(series, _integer(window, "window"), mode, rank_eps)
