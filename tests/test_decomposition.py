import dataclasses
import hashlib
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ivssa import (
    Grouping,
    IntervalSeries,
    InvalidValueError,
    PairMatrix,
    ParameterError,
    ShapeError,
    StackingMode,
    decompose,
    decompose_stacked,
    eigen_sym,
    forecast_recurrent,
    pair_cross_covariance,
    recurrence_coefficients,
    reconstruct_ercs,
    select_from_decomposition,
    stack,
    stacked_covariance,
    symbolic_covariance,
    trendline,
)
from helpers import (
    assert_compares_by_identity,
    child_env,
    long_shaped,
    make_rng,
    random_pair_matrix,
    random_series,
    structured_series,
    weekly_shaped,
)
from ivssa import decomposition
from ivssa.core import symbolic_channels
from ivssa.decomposition import (
    _LAZY_ROWS,
    DEFAULT_RANK_EPS,
    _averaged,
    _checked_eigh,
    _gap_block,
    _Hankel,
    _symmetric_product,
)
from ivssa.embedding import _embed
from ivssa.io import write_series_csv
from oracles import decompose_full, symbolic_cov_loop, symbolic_cross_cov_loop


class TestSymbolicCovariance:
    def test_known_value(self):
        # one row of pairs (0,2), (1,3): (1/6)[(0+0+0+8) + (2+3+3+18)] = 34/6
        y = PairMatrix(np.array([[0.0, 1.0]]), np.array([[2.0, 3.0]]))
        s = symbolic_covariance(y)
        assert s.shape == (1, 1)
        assert s[0, 0] == pytest.approx(34.0 / 6.0, rel=1e-15)

    def test_matches_loop_oracle(self):
        y = random_pair_matrix(make_rng(0), 6, 9)
        s = symbolic_covariance(y)
        ref = symbolic_cov_loop(y.a, y.b)
        assert np.allclose(s, ref, rtol=1e-12, atol=1e-12)

    def test_exactly_symmetric(self):
        y = random_pair_matrix(make_rng(1), 8, 5)
        s = symbolic_covariance(y)
        assert np.array_equal(s, s.T)

    def test_psd(self):
        for seed in range(10):
            y = random_pair_matrix(make_rng(seed), 7, 11)
            vals = np.linalg.eigvalsh(symbolic_covariance(y))
            assert vals.min() >= -1e-10 * max(vals.max(), 1.0)

    def test_degenerate_equals_gram(self):
        rng = make_rng(2)
        a = rng.standard_normal((5, 8))
        s = symbolic_covariance(PairMatrix(a, a.copy()))
        assert np.allclose(s, a @ a.T, rtol=1e-12, atol=1e-12)

    def test_cross_form_matches_loop_oracle(self):
        rng = make_rng(17)
        x = random_pair_matrix(rng, 4, 9)
        y = random_pair_matrix(rng, 7, 9)
        s = pair_cross_covariance(x, y)
        ref = symbolic_cross_cov_loop(x.a, x.b, y.a, y.b)
        assert s.shape == (4, 7)
        assert np.allclose(s, ref, rtol=1e-12, atol=1e-12)

    def test_cross_covariance_column_mismatch(self):
        rng = make_rng(3)
        with pytest.raises(ShapeError):
            pair_cross_covariance(
                random_pair_matrix(rng, 3, 4), random_pair_matrix(rng, 3, 5)
            )


class TestStackedCovariance:
    def test_vertical_matches_stacked_matrix(self):
        rng = make_rng(4)
        xs = [random_series(rng, 25) for _ in range(3)]
        s = stacked_covariance(xs, 7, StackingMode.VERTICAL)
        ref = symbolic_covariance(stack(xs, 7, StackingMode.VERTICAL))
        assert s.shape == (21, 21)
        assert np.allclose(s, ref, rtol=1e-12, atol=1e-12)

    def test_horizontal_matches_stacked_matrix(self):
        rng = make_rng(5)
        xs = [random_series(rng, 25) for _ in range(2)]
        s = stacked_covariance(xs, 7, StackingMode.HORIZONTAL)
        ref = symbolic_covariance(stack(xs, 7, StackingMode.HORIZONTAL))
        assert s.shape == (7, 7)
        assert np.allclose(s, ref, rtol=1e-12, atol=1e-12)

    def test_symmetric(self):
        rng = make_rng(6)
        xs = [random_series(rng, 20) for _ in range(2)]
        for mode in (StackingMode.VERTICAL, StackingMode.HORIZONTAL):
            s = stacked_covariance(xs, 5, mode)
            assert np.array_equal(s, s.T)


class TestEigenSym:
    def test_known_example(self):
        vals = eigen_sym(np.array([[5.0, 8.0], [8.0, 13.0]]))
        root = math.sqrt(80.0)
        assert vals.values[0] == pytest.approx(9.0 + root, rel=1e-14)
        assert vals.values[1] == pytest.approx(9.0 - root, rel=1e-12)
        assert vals.d == 2

    def test_descending_orthonormal_signed(self):
        rng = make_rng(7)
        a = rng.standard_normal((9, 14))
        s = a @ a.T
        s = (s + s.T) / 2
        eig = eigen_sym(s)
        assert np.all(np.diff(eig.values) <= 1e-12)
        assert np.allclose(eig.vectors.T @ eig.vectors, np.eye(9), atol=1e-12)
        for col in eig.vectors.T:
            assert col[np.argmax(np.abs(col))] > 0
        # reconstruction of s from the eigenpairs
        assert np.allclose(
            (eig.vectors * eig.values) @ eig.vectors.T, s, atol=1e-10
        )

    def test_sign_convention_is_input_stable(self):
        rng = make_rng(8)
        a = rng.standard_normal((6, 6))
        s = a @ a.T
        e1 = eigen_sym(s)
        e2 = eigen_sym(s.copy())
        assert np.array_equal(e1.vectors, e2.vectors)

    def test_rank_cutoff(self):
        rng = make_rng(9)
        u = np.linalg.qr(rng.standard_normal((8, 8)))[0][:, :3]
        s = u @ np.diag([4.0, 2.0, 1.0]) @ u.T
        s = (s + s.T) / 2
        assert eigen_sym(s).d == 3

    def test_zero_matrix_rank_zero(self):
        assert eigen_sym(np.zeros((4, 4))).d == 0

    @pytest.mark.parametrize("rank_eps", [math.nan, 1.0, -1.0])
    def test_rank_eps_outside_unit_interval_rejected(self, rank_eps):
        # a negative cutoff would keep round-off eigenvalues in d, and one
        # of 1 or NaN would keep none
        with pytest.raises(ParameterError, match="rank_eps"):
            eigen_sym(np.eye(3), rank_eps=rank_eps)

    def test_validation(self):
        with pytest.raises(ShapeError):
            eigen_sym(np.zeros((2, 3)))
        with pytest.raises(InvalidValueError):
            eigen_sym(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_empty_matrix_rejected(self):
        with pytest.raises(ShapeError, match="nonempty square matrix"):
            eigen_sym(np.zeros((0, 0)))

    def test_non_finite_entries_rejected(self):
        for bad in (np.inf, np.nan):
            with pytest.raises(InvalidValueError, match="non-finite"):
                eigen_sym(np.array([[bad, 0.0], [0.0, 1.0]]))

    def test_overflowing_covariance_names_cause(self):
        # the Gram product of values near 1e160 exceeds float64; the fit must
        # fail naming it rather than report rank d = 0
        y = structured_series(60, seed=3)
        big = IntervalSeries(y.lo * 1e160, y.hi * 1e160)
        with pytest.raises(InvalidValueError, match="non-finite"):
            decompose(big)

    def test_underflowing_covariance_names_cause(self):
        # the Gram product of values near 1e-200 rounds to zero; a nonzero
        # series must fail naming it, while an all-zero one keeps rank 0
        y = structured_series(60, seed=3)
        tiny = IntervalSeries(y.lo * 1e-200, y.hi * 1e-200)
        with pytest.raises(InvalidValueError, match="underflows"):
            decompose(tiny)
        assert decompose(IntervalSeries(np.zeros(60), np.zeros(60))).d == 0


class TestCheckedEigh:
    """The stacked eigensolve of the grid search, against ``eigen_sym``."""

    @staticmethod
    def gram(seed: int, l: int = 6) -> np.ndarray:
        a = make_rng(seed).standard_normal((l, 2 * l))
        return a @ a.T

    def test_each_matrix_as_eigen_sym(self):
        stack = np.array([self.gram(seed) for seed in range(4)])
        values, vectors, d = _checked_eigh(stack, DEFAULT_RANK_EPS)
        for f, s in enumerate(stack):
            eig = eigen_sym(s)
            assert np.array_equal(values[f], eig.values)
            assert np.array_equal(vectors[f], eig.vectors)
            assert d[f] == eig.d

    @pytest.mark.parametrize(
        "order, message",
        [
            (("zero", "inf"), "underflows"),
            (("inf", "zero"), "non-finite"),
            (("skew", "zero"), "not symmetric"),
            (("zero", "skew"), "underflows"),
        ],
    )
    def test_first_failing_matrix_raises(self, order, message):
        # as if the matrices were checked one after another: a zero matrix
        # of a nonzero series underflowed, inf overflowed, skew is asymmetric
        ok = self.gram(0)
        bad = {"zero": np.zeros_like(ok), "inf": ok.copy(), "skew": ok.copy()}
        bad["inf"][2, 3] = np.inf
        bad["skew"][0, 1] += 1e-6 * np.max(np.abs(ok))
        stack = np.array([ok] + [bad[name] for name in order])
        with pytest.raises(InvalidValueError, match=message):
            _checked_eigh(stack, DEFAULT_RANK_EPS, nonzero=np.ones(3, dtype=bool))

    def test_zero_matrix_of_zero_series_has_rank_zero(self):
        stack = np.array([np.zeros((4, 4)), self.gram(1, 4)])
        _, _, d = _checked_eigh(stack, DEFAULT_RANK_EPS, nonzero=np.array([False, True]))
        assert d.tolist() == [0, 4]


class TestDecompose:
    def test_decomposition_compares_by_identity(self):
        y = structured_series(40, seed=5)
        assert_compares_by_identity(lambda: decompose(y, 10))

    def test_eigenpairs_compare_by_identity(self):
        y = structured_series(40, seed=5)
        assert_compares_by_identity(lambda: decompose(y, 10).eig)

    def test_default_window(self):
        y = random_series(make_rng(13), 40)
        dec = decompose(y)
        assert dec.window == 21
        assert dec.k == 20
        assert dec.eig.values.size == 21
        assert dec.mode is StackingMode.UNIVARIATE

    def test_stacked_modes(self):
        rng = make_rng(16)
        xs = [random_series(rng, 30) for _ in range(2)]
        dv = decompose_stacked(xs, mode=StackingMode.VERTICAL)
        dh = decompose_stacked(xs, mode=StackingMode.HORIZONTAL)
        # trajectory shapes: vertical (2*11) x 20, horizontal 21 x (2*10)
        assert dv.window == 11 and dv.eig.values.size == 22 and dv.k == 20
        assert dh.window == 21 and dh.eig.values.size == 21 and dh.k == 10
        assert dv.n_series == dh.n_series == 2

    def test_stacked_univariate_mode_rejected(self):
        rng = make_rng(17)
        xs = [random_series(rng, 12) for _ in range(2)]
        with pytest.raises(ParameterError):
            decompose_stacked(xs, mode=StackingMode.UNIVARIATE)

    def test_stacked_empty_rejected(self):
        for mode in StackingMode:
            with pytest.raises(ParameterError, match="at least one series"):
                decompose_stacked([], mode=mode)

    def test_non_integral_window_rejected(self):
        # truncating would fit 5.7 at l = 5
        rng = make_rng(19)
        y = random_series(rng, 20)
        xs = [random_series(rng, 20) for _ in range(2)]
        for window in (5.7, np.float64(5.5), math.nan):
            message = f"window must be an integer, got {window}"
            with pytest.raises(ParameterError, match=message):
                decompose(y, window)
            with pytest.raises(ParameterError, match=message):
                decompose_stacked(xs, window)

    def test_integral_window_types_accepted(self):
        rng = make_rng(20)
        y = random_series(rng, 20)
        xs = [random_series(rng, 20) for _ in range(2)]
        want, want_stacked = decompose(y, 5), decompose_stacked(xs, 5)
        for window in (5.0, np.int64(5), np.float64(5.0)):
            dec, stacked = decompose(y, window), decompose_stacked(xs, window)
            assert type(dec.window) is int and type(stacked.window) is int
            assert np.array_equal(dec.eig.values, want.eig.values)
            assert np.array_equal(stacked.eig.values, want_stacked.eig.values)

    def test_degenerate_matches_classical_eigenvalues(self):
        rng = make_rng(18)
        vals = rng.standard_normal(30)
        y = IntervalSeries(vals, vals.copy())
        dec = decompose(y, 10)
        sing = np.linalg.svd(
            np.column_stack([vals[j : j + 10] for j in range(21)]),
            compute_uv=False,
        )
        assert np.allclose(dec.eig.values, sing**2, rtol=1e-10, atol=1e-10)


class TestHankelOperator:
    """``_Hankel`` against the channel matrix Z that ``_embed`` forms."""

    @pytest.mark.parametrize(
        "n, window",
        # k = l, k > l and k < l at odd and even n, and two FFT lengths
        # past n (1024 for 1000, 2048 for 1025)
        [(9, 5), (11, 3), (11, 8), (10, 4), (10, 7), (12, 6), (1000, 501), (1025, 400)],
    )
    @pytest.mark.parametrize(
        "mode, count",
        [(StackingMode.UNIVARIATE, 1)]
        + [(m, c) for m in (StackingMode.VERTICAL, StackingMode.HORIZONTAL) for c in (1, 2, 3)],
    )
    def test_products_match_direct(self, mode, count, n, window):
        rng = make_rng(n + 7 * count)
        # series at three scales, each with a level that dominates its FFT
        ends = [np.sort(rng.normal(5.0, 1.0, (2, n)), axis=0) for _ in range(count)]
        channels = [symbolic_channels(lo, hi) for lo, hi in ends]
        channels = [(c * 10.0**i, r * 10.0**i) for i, (c, r) in enumerate(channels)]
        z = _embed(channels, window, mode)
        op = _Hankel(channels, window, mode)
        q, w = rng.normal(size=(len(z), 3)), rng.normal(size=(z.shape[1], 3))
        for got, want in ((op.dot(q, transpose=True), z.T @ q), (op.dot(w), z @ w)):
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        assert np.max(np.abs(op.diag - np.einsum("ij,ij->i", z, z))) <= 1e-13 * op.diag.max()

    @pytest.mark.parametrize("mode", list(StackingMode))
    def test_reads_within_the_gap_never_form_s(self, mode, monkeypatch):
        # S = Z Z' is formed once, by the first read past the gap, and is
        # the product of the fit's own Z bit for bit
        formed = []

        def counted(z):
            formed.append(_symmetric_product(z))
            return formed[-1]

        monkeypatch.setattr(decomposition, "_symmetric_product", counted)
        if mode is StackingMode.UNIVARIATE:
            series, window = [long_shaped(2 * _LAZY_ROWS + 9, seed=1)], _LAZY_ROWS
        elif mode is StackingMode.VERTICAL:
            n = 3 * (_LAZY_ROWS // 2) - 1
            series, window = [long_shaped(n, 1), long_shaped(n, 2)], _LAZY_ROWS // 2
        else:
            n = 3 * _LAZY_ROWS // 2
            series, window = [long_shaped(n, 1), long_shaped(n, 2)], _LAZY_ROWS
        dec = decompose_stacked(series, window, mode)
        j = dec.eig._known.shape[1]
        assert dec.eig._z is not None and j >= 1
        for s in range(1, len(series) + 1):
            dec.component_channels(range(1, j + 1), s)
        recurrence_coefficients(dec.eig, Grouping.leading(j))
        dec.eig.leading(j)
        assert dec.eig.within_rank(j) and dec.eig.reach(j) == j
        assert formed == []
        dec.component_channels((j + 1,))
        dec.d
        dec.eig.values
        dec.eig.vectors
        assert len(formed) == 1
        assert np.array_equal(formed[0], _symmetric_product(dec._z))


def rerun_gap_block(dec, series) -> np.ndarray | None:
    """``_gap_block`` run again on a fit's Z and its series' channels."""
    channels = [symbolic_channels(y.lo, y.hi) for y in series]
    return _gap_block(dec._z, _Hankel(channels, dec.window, dec.mode), DEFAULT_RANK_EPS)


def count_solves(monkeypatch) -> list:
    """The matrices that ``ivssa.decomposition`` passes to ``eigen_sym``
    from now on, one per complete solve."""
    solved = []

    def counted(s, *args, **kwargs):
        solved.append(s)
        return eigen_sym(s, *args, **kwargs)

    monkeypatch.setattr(decomposition, "eigen_sym", counted)
    return solved


def field_digest(obj) -> str:
    """SHA-256 of every dataclass field of obj, recursing through
    dataclasses and dicts, arrays by dtype, shape and bytes."""
    h = hashlib.sha256()

    def feed(x):
        if isinstance(x, np.ndarray):
            h.update(f"{x.dtype.str}{x.shape}".encode() + np.ascontiguousarray(x).tobytes())
        elif dataclasses.is_dataclass(x):
            for f in dataclasses.fields(x):
                feed(getattr(x, f.name))
        elif isinstance(x, dict):
            for k in sorted(x):
                h.update(repr(k).encode())
                feed(x[k])
        else:
            h.update(repr(x).encode())

    feed(obj)
    return h.hexdigest()


def rel_rows(got: np.ndarray, want: np.ndarray) -> float:
    """Largest difference of two (rows, n) arrays, row by row relative to
    the row's largest magnitude."""
    return float(np.max(np.abs(got - want).max(axis=1) / np.abs(want).max(axis=1)))


def assert_matches_complete_solve(dec, ref) -> int:
    """The fit dec against the complete solve ref: the same d, the first
    components past the gap within rel 1e-10 of each component's size over
    all series, values within 1e-13 lambda_1, and ||U'U - I|| <= 1e-12
    once every column is read.  Returns the number of components checked."""
    assert dec.d == ref.d
    count = min(dec.eig._known.shape[1] + 4, dec.d)
    indices = range(1, count + 1)
    blocks = range(1, dec.n_series + 1)
    got = [np.hstack(c) for c in zip(*(dec.component_channels(indices, s) for s in blocks))]
    want = [np.hstack(c) for c in zip(*(ref.component_channels(indices, s) for s in blocks))]
    for g, w in zip(got, want):
        assert rel_rows(g, w) <= 1e-10
    lam1 = ref.eig.values[0]
    assert np.max(np.abs(dec.eig.values - ref.eig.values)) <= 1e-13 * lam1
    u = dec.eig.vectors
    assert np.max(np.abs(u.T @ u - np.eye(len(u)))) <= 1e-12
    return count


class TestLargeFits:
    """Fits whose S has at least ``_LAZY_ROWS`` rows solve only for what is
    read; ``decompose_full`` is the complete solve at the same window."""

    @settings(max_examples=12)
    @given(
        shape=st.sampled_from([long_shaped, weekly_shaped]),
        seed=st.integers(0, 2**16),
        window=st.integers(_LAZY_ROWS, _LAZY_ROWS + 40),
        extra=st.integers(-20, 20),
    )
    def test_matches_complete_solve(self, shape, seed, window, extra):
        y = shape(2 * window - 1 + extra, seed)
        dec, ref = decompose(y, window), decompose_full(y, window)
        for m in range(1, assert_matches_complete_solve(dec, ref) + 1):
            got = recurrence_coefficients(dec.eig, Grouping.leading(m)).alpha
            want = recurrence_coefficients(ref.eig, Grouping.leading(m)).alpha
            assert rel_rows(got[None], want[None]) <= 1e-10

    @settings(max_examples=12)
    @given(
        shape=st.sampled_from([long_shaped, weekly_shaped]),
        mode=st.sampled_from([StackingMode.VERTICAL, StackingMode.HORIZONTAL]),
        scale=st.sampled_from([1.0, 1e-3, 1e3]),
        seed=st.integers(0, 2**16),
        extra=st.integers(0, 20),
    )
    def test_stacked_matches_complete_solve(self, shape, mode, scale, seed, extra):
        # two series, the second at another scale: S has 2l rows vertically
        # and l horizontally, and its largest diagonal entries, which start
        # the block iteration, can all lie in one series' rows
        if mode is StackingMode.VERTICAL:
            window = _LAZY_ROWS // 2 + extra
            n = 3 * window - 1
        else:
            window = _LAZY_ROWS + extra
            n = 3 * window // 2
        other = shape(n, seed + 1)
        series = [shape(n, seed), IntervalSeries(other.lo * scale, other.hi * scale)]
        dec = decompose_stacked(series, window, mode)
        assert dec.eig._z is not None
        assert_matches_complete_solve(dec, decompose_full(series, window, mode=mode))

    @pytest.mark.parametrize("mode", [StackingMode.VERTICAL, StackingMode.HORIZONTAL])
    def test_stacked_level_beside_a_sine(self, mode):
        # a constant interval holds S's largest diagonal entries and its
        # leading eigenvector; the sine's pair must still be found.  Stacked
        # vertically, theta_4 = 2.0e-3 theta_1 lies at the floor of
        # certification, and the direct products Z (Z' Q) certify the gap
        # after it (residual 0.34 of its bound, on 1 and 2 BLAS threads)
        t = np.arange(3 * _LAZY_ROWS // 2)
        sine = np.sin(2 * np.pi * t / 40.0)
        level = np.full(t.size, 2.0)
        series = [IntervalSeries(sine, sine + 0.5), IntervalSeries(level, level + 1.0)]
        window = _LAZY_ROWS // 2 + 1 if mode is StackingMode.VERTICAL else _LAZY_ROWS + 1
        dec = decompose_stacked(series, window, mode)
        j = 4 if mode is StackingMode.VERTICAL else 3
        assert dec.eig._z is not None and dec.eig._known.shape[1] == j
        assert_matches_complete_solve(dec, decompose_full(series, window, mode=mode))

    def test_gap_path_reads_past_the_gap(self, monkeypatch):
        # the long shape has its gap after three components; the fit solves
        # nothing more until a read past it, which runs the one complete
        # solve that also gives d and the eigenvalues, and the leading
        # columns keep their bits
        solves = count_solves(monkeypatch)
        y = long_shaped(2 * _LAZY_ROWS + 9, seed=1)
        dec = decompose(y, _LAZY_ROWS)
        eig = dec.eig
        assert eig._z is not None and eig._known.shape[1] == 3
        assert "_solved" not in vars(eig) and solves == []
        known = eig.leading(3).copy()
        dec.component_channels((4,))
        assert len(solves) == 1
        assert np.array_equal(eig.vectors[:, :3], known)
        assert dec.d == _LAZY_ROWS and eig.values.size == _LAZY_ROWS
        assert len(solves) == 1

    @pytest.mark.parametrize("first", ["d", "values", "past_gap", "vectors"])
    def test_one_complete_solve_whatever_is_read_first(self, monkeypatch, first):
        # d, the eigenvalues and the columns past the gap are those of one
        # eigen_sym of S, bit for bit, and the gap block keeps its own
        solves = count_solves(monkeypatch)
        y = long_shaped(2 * _LAZY_ROWS + 9, seed=2)
        dec = decompose(y, _LAZY_ROWS)
        eig = dec.eig
        j = eig._known.shape[1]
        assert eig._z is not None and solves == []
        reads = {
            "d": lambda: dec.d,
            "values": lambda: eig.values,
            "past_gap": lambda: dec.component_channels((j + 1,)),
            "vectors": lambda: eig.vectors,
        }
        reads[first]()
        assert len(solves) == 1 and np.array_equal(solves[0], _symmetric_product(dec._z))
        for read in reads.values():
            read()
        assert len(solves) == 1
        want = eigen_sym(_symmetric_product(dec._z))
        assert dec.d == want.d
        assert np.array_equal(eig.values, want.values)
        assert np.array_equal(eig.vectors[:, j:], want.vectors[:, j:])
        assert np.array_equal(eig.vectors[:, :j], rerun_gap_block(dec, [y]))

    def test_reach_agrees_with_within_rank(self):
        """A read from i may stop at the gap j while i <= j, at d past it;
        within_rank(i) is 1 <= i <= reach(i), and d is read only past j."""
        y = long_shaped(2 * _LAZY_ROWS + 9, seed=2)
        small = decompose(structured_series(60, seed=12, noise=0.3))
        large = decompose(y, _LAZY_ROWS)
        j = large.eig._known.shape[1]
        for i in range(-1, j + 1):
            assert large.eig.reach(i) == j
            assert large.eig.within_rank(i) == (i >= 1)
        assert "_solved" not in vars(large.eig)
        for eig, gap in ((large.eig, j), (small.eig, small.d)):
            for i in range(-1, eig.d + 3):
                assert eig.reach(i) == (gap if i <= gap else eig.d)
                assert eig.within_rank(i) == (1 <= i <= eig.d) == (1 <= i <= eig.reach(i))

    def test_bits_independent_of_read_order(self):
        y = long_shaped(2 * _LAZY_ROWS + 9, seed=2)
        # d first, then the gap components, past the gap, and the eigenvalues
        first = decompose(y, _LAZY_ROWS)
        d = first.d
        j = first.eig._known.shape[1]
        assert first.eig._z is not None and j + 40 < d
        indices = range(1, j + 41)
        lead = first.component_channels(range(1, j + 1))
        past = first.component_channels(range(j + 1, j + 41))
        first_alpha = recurrence_coefficients(first.eig, Grouping.leading(j)).alpha
        first.eig.values
        # the eigenvectors and eigenvalues first, then every component, d last
        second = decompose(y, _LAZY_ROWS)
        second.eig.vectors
        second.eig.values
        second_channels = second.component_channels(indices)
        assert second.d == d
        # the eigenvalues, then a component of the second block past the gap
        third = decompose(y, _LAZY_ROWS)
        third.eig.values
        third.component_channels((j + 40,))
        third_channels = third.component_channels(indices)
        # the eigenpairs, then only the gap components and the weights
        fourth = decompose(y, _LAZY_ROWS)
        fourth.eig.vectors
        fourth.eig.values
        fourth_lead = fourth.component_channels(range(1, j + 1))
        fourth_alpha = recurrence_coefficients(fourth.eig, Grouping.leading(j)).alpha
        assert np.array_equal(fourth_lead[0], lead[0])
        assert np.array_equal(fourth_lead[1], lead[1])
        assert np.array_equal(fourth_alpha, first_alpha)
        for dec, (ca, cb) in ((second, second_channels), (third, third_channels)):
            assert np.array_equal(ca, np.vstack((lead[0], past[0])))
            assert np.array_equal(cb, np.vstack((lead[1], past[1])))
            alpha = recurrence_coefficients(dec.eig, Grouping.leading(j)).alpha
            assert np.array_equal(alpha, first_alpha)
        for dec in (second, third, fourth):
            assert np.array_equal(dec.eig.vectors, first.eig.vectors)
            assert np.array_equal(dec.eig.values, first.eig.values)
            assert dec.d == d

    @pytest.mark.parametrize("sine_only", [False, True], ids=["full_rank", "rank_three"])
    def test_reading_d_changes_no_field(self, sine_only):
        # the complete solve that d, the eigenvalues and the eigenvectors
        # come from is kept outside the fields
        if sine_only:
            s = np.sin(2 * np.pi * np.arange(2 * _LAZY_ROWS) / 40.0)
            y = IntervalSeries(s, s + 1.0)
        else:
            y = long_shaped(2 * _LAZY_ROWS - 1, seed=6)
        dec = decompose(y, _LAZY_ROWS)
        assert dec.eig._z is not None
        before = field_digest(dec)
        assert dec.d == (3 if sine_only else _LAZY_ROWS)
        dec.eig.values
        dec.eig.vectors
        assert field_digest(dec) == before

    def test_pipeline_within_the_gap_solves_nothing(self, monkeypatch):
        # the README pipeline on a fit whose scan stops inside the gap block
        # never runs the complete solve
        solves = count_solves(monkeypatch)
        y = long_shaped(2 * _LAZY_ROWS - 1, seed=7)
        dec = decompose(y)
        sel = select_from_decomposition(dec, y)
        grouping = Grouping.leading(sel.m)
        reconstruct_ercs(dec, sel.m)
        trend = trendline(dec, grouping)[0]
        forecast_recurrent(trend, recurrence_coefficients(dec.eig, grouping), 10)
        assert dec.window == _LAZY_ROWS and sel.m <= dec.eig._known.shape[1]
        assert solves == []
        ref = decompose_full(y)
        assert dec.d == ref.d and sel.m == select_from_decomposition(ref, y).m
        want = trendline(ref, grouping)[0]
        assert rel_rows(trend.lo[None], want.lo[None]) <= 1e-10
        assert rel_rows(trend.hi[None], want.hi[None]) <= 1e-10

    def test_past_the_rank_messages_match_complete_solve(self):
        y = long_shaped(2 * _LAZY_ROWS - 1, seed=8)
        dec, ref = decompose(y, _LAZY_ROWS), decompose_full(y, _LAZY_ROWS)
        assert dec.eig._z is not None and ref.d == _LAZY_ROWS
        past = _LAZY_ROWS + 1
        for call in (
            lambda fit: recurrence_coefficients(fit.eig, Grouping.leading(past)),
            lambda fit: trendline(fit, Grouping((1, past))),
            lambda fit: reconstruct_ercs(fit, past),
        ):
            with pytest.raises(ParameterError) as got:
                call(dec)
            with pytest.raises(ParameterError) as want:
                call(ref)
            assert str(got.value) == str(want.value)
        with pytest.raises(ParameterError) as got:
            dec.component_channels((past,))
        assert str(got.value) == f"component must lie in [1, {ref.d}], got {past}"

    def test_gap_at_the_rank_cutoff_is_not_taken(self):
        # with the cutoff just below theta_3, the gap after the sine pair
        # is within rounding of it, so the fit keeps only the level's gap
        y = long_shaped(2 * _LAZY_ROWS - 1, seed=9)
        values = decompose_full(y, _LAZY_ROWS).eig.values
        rank_eps = values[2] / values[0] * (1 - 1e-6)
        dec = decompose(y, _LAZY_ROWS, rank_eps=rank_eps)
        assert dec.eig._z is not None and dec.eig._known.shape[1] == 1
        assert dec.d == decompose_full(y, _LAZY_ROWS, rank_eps=rank_eps).d == 3

    def test_rank_deficient_covariance_exact_rank(self, monkeypatch):
        # a pure sine with a constant radius spans three directions: the one
        # complete solve counts d = 3, and its eigenvalues are the ones kept
        t = np.arange(2 * _LAZY_ROWS)
        s = np.sin(2 * np.pi * t / 40.0)
        y = IntervalSeries(s, s + 1.0)
        dec = decompose(y, _LAZY_ROWS)
        assert dec.eig._z is not None
        want = eigen_sym(_symmetric_product(dec._z))
        solves = count_solves(monkeypatch)
        assert dec.d == want.d == 3
        assert np.array_equal(dec.eig.values, want.values)
        assert len(solves) == 1
        assert decompose_full(y, _LAZY_ROWS).d == 3

    def test_no_gap_takes_the_complete_solve(self):
        # white noise has no clear gap among its leading eigenvalues, so a
        # fit at l = 401 runs the complete solve at build
        mid = np.random.default_rng(0).normal(0.0, 1.0, 2 * _LAZY_ROWS)
        y = IntervalSeries(mid - 1e-3, mid + 1e-3)
        dec = decompose(y)
        assert dec.window >= _LAZY_ROWS and dec.eig._z is None
        assert dec.d == 401
        assert assert_matches_complete_solve(dec, decompose_full(y)) == 401

    def test_rank_eps_zero(self):
        y = long_shaped(2 * _LAZY_ROWS - 1, seed=3)
        dec = decompose(y, _LAZY_ROWS, rank_eps=0.0)
        assert dec.eig._z is not None
        assert dec.d == decompose_full(y, _LAZY_ROWS, rank_eps=0.0).d == _LAZY_ROWS

    @pytest.mark.parametrize("rank_eps", [math.nan, 1.0, -1.0])
    def test_rank_eps_outside_unit_interval_rejected(self, rank_eps):
        y = long_shaped(2 * _LAZY_ROWS - 1, seed=3)
        with pytest.raises(ParameterError, match="rank_eps must lie in"):
            decompose(y, _LAZY_ROWS, rank_eps=rank_eps)

    @pytest.mark.parametrize(
        "scale, message",
        [(1e160, "non-finite entries"), (1e-200, "underflows")],
        ids=["overflow", "underflow"],
    )
    def test_scaled_series_names_cause(self, tmp_path, scale, message):
        y = long_shaped(2 * _LAZY_ROWS - 1, seed=4)
        scaled = IntervalSeries(y.lo * scale, y.hi * scale)
        with pytest.raises(InvalidValueError, match=message) as got:
            decompose(scaled)
        with pytest.raises(InvalidValueError) as want:
            decompose_full(scaled)
        assert str(got.value) == str(want.value)
        path = tmp_path / "scaled.csv"
        write_series_csv(str(path), scaled)
        res = subprocess.run(
            [sys.executable, "-m", "ivssa", "decompose", "--input", str(path)],
            capture_output=True, text=True, env=child_env(),
        )
        assert res.returncode == 3
        assert message in res.stderr and "RuntimeWarning" not in res.stderr

    def test_below_threshold_is_the_complete_solve(self):
        y = long_shaped(2 * _LAZY_ROWS - 3, seed=5)
        window = _LAZY_ROWS - 1
        dec, ref = decompose(y, window), decompose_full(y, window)
        assert dec.eig._z is None and dec.d == ref.d
        assert dec._z is None  # every component is projected
        assert np.array_equal(dec.eig.values, ref.eig.values)
        assert np.array_equal(dec.eig.vectors, ref.eig.vectors)
        # below the threshold the fit projects every component in one
        # build-time block, u'Z over all d eigenvectors, as the complete
        # solve does: with the same channel arithmetic the bits agree
        u = ref.eig.vectors[:, : ref.d]
        w = u.T @ _embed([symbolic_channels(y.lo, y.hi)], window, StackingMode.UNIVARIATE)
        n, k = len(y), w.shape[1] // 2
        t = np.arange(n)
        counts = np.minimum(np.minimum(t + 1, n - t), min(window, k))
        indices = range(1, dec.d + 1)
        got = dec.component_channels(indices)
        want = _averaged(list(u.T), w[:, :k], w[:, k:], counts)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        # the oracle reconstructs from the endpoint projections u'A and u'B
        for channel, oracle in zip(got, ref.component_channels(indices)):
            assert rel_rows(channel, oracle) <= 1e-10
        got = recurrence_coefficients(dec.eig, Grouping.leading(5)).alpha
        assert np.array_equal(got, recurrence_coefficients(ref.eig, Grouping.leading(5)).alpha)
