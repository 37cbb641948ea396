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
a fit is averaged once.

A fit whose S has fewer than ``_LAZY_ROWS`` rows solves for every
eigenpair (``eigen_sym``) and projects on all d eigenvectors.  A larger
fit computes only what is read (``_build``): block subspace iteration
multiplying by Z (Z' Q), by FFT while it converges and directly where it
certifies, finds the leading eigenvectors up to a clear spectral gap j,
whose eigenvalues lie provably above the rank cutoff, so every index up to
j is known to be at most d.  The first read of d, of the eigenvalues or of
an eigenvector past the gap forms S for one complete solve for all three,
and the projections past the gap follow on first read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

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

#: Components past the known eigenvectors are projected this many at a time.
_PROJECTION_BLOCK = 32

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


def _fill(obj, **fields) -> None:
    """Set attributes of a frozen dataclass instance."""
    for name, value in fields.items():
        object.__setattr__(obj, name, value)


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
        _fill(self, _known=vectors if d is None else vectors[:, :d], _z=z, _rank_eps=rank_eps)
        if d is not None:
            _fill(self, _solved=(values, vectors, d))

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
    """Make the largest-magnitude entry of each column of v positive, in place."""
    signs = np.sign(v[np.argmax(np.abs(v), axis=0), np.arange(v.shape[1])])
    signs[signs == 0] = 1.0
    v *= signs


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
    # one matrix at a time and in place, so no temporary of the stack's size
    for v in vectors:
        _fix_signs(v)
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
    """Endpoint channels (a, b), (len(u), len(counts)) each, of the last
    len(counts) antidiagonal means of the rank-one components u_i [mid_i,
    radius_i]'.  Each channel is the full convolution of u_i with its
    projection row divided by the antidiagonal lengths ``counts``, and
    ``channel_endpoints`` maps the two to endpoints.  Every trendline and
    trendline tail averages through here."""
    c = np.empty((len(u), counts.size))
    r = np.empty_like(c)
    for i, ui in enumerate(u):
        c[i] = np.convolve(ui, mid[i])[-counts.size :]
        r[i] = np.convolve(ui, radius[i])[-counts.size :]
    return channel_endpoints(c / counts, r / counts)


@dataclass(frozen=True, eq=False)
class Decomposition:
    """Result of the symbolic SVD step for one (possibly stacked) trajectory matrix.

    ``window`` is the per-series window l; for vertical stacking the
    trajectory matrix has window * n_series rows.  ``_w`` keeps the
    projections u_i' Z of the channel matrix Z (``embedding._embed``), one
    row per component, by the first component of each block that
    ``_projections`` computed.  Z itself (``_z``) is kept only while
    components remain to be projected, which is when ``eig`` holds part of
    a solve.  ``_rows`` maps a series index to the averaged endpoint
    channels (a, b) of its components 1..count, two (count, n) arrays, so
    every reader averages a component once per fit.
    """

    mode: StackingMode
    window: int
    k: int
    n_series: int
    series_length: int
    eig: EigenPairs
    _z: np.ndarray | None
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

    def _projections(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Mid and radius parts of the row u_i' Z of the 0-based component i.

        Rows are computed a block at a time, with one product u' Z: the
        components whose eigenvectors are known without a further solve,
        then consecutive blocks of _PROJECTION_BLOCK components past them,
        up to d.  So a row has the same bits whatever was read before it."""
        j = self.eig._known.shape[1]
        start = 0 if i < j else i - (i - j) % _PROJECTION_BLOCK
        stop = j if i < j else min(start + _PROJECTION_BLOCK, self.d)
        if start not in self._w:
            w = self.eig.leading(stop)[:, start:].T @ self._z
            w.flags.writeable = False
            self._w[start] = w
        w = self._w[start][i - start]
        return w[: w.size // 2], w[w.size // 2 :]

    def component_channels(
        self, indices: Sequence[int], series_index: int = 1
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
        a fresh one would, whatever was read before it.
        """
        rows, cols = self.series_block(series_index)
        # the largest index first, so a grouping past d projects nothing
        top = _component_index(self.eig, max(indices)) if indices else 0
        idx = [_component_index(self.eig, i) - 1 for i in indices]
        a, b = self._rows.get(int(series_index), (np.empty((0, self.series_length)),) * 2)
        if top > len(a):
            w = np.array([self._projections(i) for i in range(len(a), top)])[..., cols]
            u = self.eig.leading(top)[rows, len(a) :].T
            new = _averaged(u, w[:, 0], w[:, 1], self._counts)
            a, b = np.vstack((a, new[0])), np.vstack((b, new[1]))
            self._rows[int(series_index)] = (a, b)
        return a[idx], b[idx]

    @cached_property
    def _counts(self) -> np.ndarray:
        """Antidiagonal lengths of a series' block, one per time index; kept
        because the whiteness scan reads a few components per call."""
        n = self.series_length
        t = np.arange(n)
        return np.minimum(np.minimum(t + 1, n - t), min(self.window, self.k))


def _build(
    series: Sequence[IntervalSeries], window: int, mode: StackingMode, rank_eps: float
) -> Decomposition:
    """The one fit: Z of the series' channels (``_embed``), the eigenpairs of
    S = Z Z', and the projections u' Z on the eigenvectors known so far.
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
    has_rank = eig.within_rank(1)  # d >= 1, which a gap block proves
    if not has_rank and any(y.lo.any() or y.hi.any() for y in series):
        raise InvalidValueError(_UNDERFLOW)
    n = len(series[0])
    dec = Decomposition(
        mode=mode,
        window=window,
        k=n - window + 1,
        n_series=len(series),
        series_length=n,
        eig=eig,
        _z=z,
    )
    if has_rank:
        dec._projections(0)
    if eig._z is None:  # a complete solve: every component is projected
        _fill(dec, _z=None)
    return dec


def decompose(
    y: IntervalSeries, window: int | None = None, rank_eps: float = DEFAULT_RANK_EPS
) -> Decomposition:
    """Univariate decomposition: embed, build S, eigendecompose."""
    if window is None:
        window = default_window(len(y))
    return _build([y], _integer(window, "window"), StackingMode.UNIVARIATE, rank_eps)


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
