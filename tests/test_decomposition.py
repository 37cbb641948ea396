import math

import numpy as np
import pytest

from ivssa import (
    IntervalSeries,
    InvalidValueError,
    PairMatrix,
    ParameterError,
    ShapeError,
    StackingMode,
    c_norm,
    decompose,
    decompose_stacked,
    eigen_sym,
    elementary_matrices,
    minkowski_sub,
    pair_cross_covariance,
    stack,
    stacked_covariance,
    symbolic_covariance,
    trajectory,
)
from helpers import make_rng, random_pair_matrix, random_series, structured_series
from oracles import symbolic_cov_loop, symbolic_cross_cov_loop


class TestSymbolicCovariance:
    def test_known_value(self):
        # one row of pairs (0,2), (1,3): (1/6)[(0+0+0+8) + (2+3+3+18)] = 34/6
        y = PairMatrix.from_pairs([[(0.0, 2.0), (1.0, 3.0)]])
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

    def test_validation(self):
        with pytest.raises(ShapeError):
            eigen_sym(np.zeros((2, 3)))
        with pytest.raises(InvalidValueError):
            eigen_sym(np.array([[1.0, 2.0], [0.0, 1.0]]))

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


class TestElementary:
    def test_sum_reconstructs(self):
        y = random_pair_matrix(make_rng(10), 6, 10)
        eig = eigen_sym(symbolic_covariance(y))
        parts = elementary_matrices(y, eig)
        assert len(parts) == eig.d
        total = parts[0]
        for p in parts[1:]:
            total = total + p
        assert c_norm(minkowski_sub(y, total)) <= 1e-12 * c_norm(y)

    def test_rank_one(self):
        y = random_pair_matrix(make_rng(11), 5, 7)
        eig = eigen_sym(symbolic_covariance(y))
        for p in elementary_matrices(y, eig):
            stacked = np.hstack([p.a, p.b])
            s = np.linalg.svd(stacked, compute_uv=False)
            assert s[1] <= 1e-10 * max(s[0], 1.0)

    def test_shape_mismatch(self):
        rng = make_rng(12)
        y = random_pair_matrix(rng, 5, 7)
        eig = eigen_sym(symbolic_covariance(random_pair_matrix(rng, 4, 7)))
        with pytest.raises(ShapeError):
            elementary_matrices(y, eig)


class TestDecompose:
    def test_default_window(self):
        y = random_series(make_rng(13), 40)
        dec = decompose(y)
        assert dec.window == 21
        assert dec.k == 20
        assert dec.mode is StackingMode.UNIVARIATE
        assert dec.trajectory == trajectory(y, 21)

    def test_elementary_access(self):
        y = random_series(make_rng(14), 20)
        dec = decompose(y, 6)
        full = elementary_matrices(dec.trajectory, dec.eig)
        assert dec.elementary_matrix(1) == full[0]
        assert dec.elementary == full
        with pytest.raises(ParameterError):
            dec.elementary_matrix(0)
        with pytest.raises(ParameterError):
            dec.elementary_matrix(dec.d + 1)

    def test_grouped_arrays_match_elementary_sum(self):
        y = random_series(make_rng(15), 25)
        dec = decompose(y, 8)
        ga, gb = dec.grouped_arrays((1, 3, 4))
        ref = dec.elementary_matrix(1) + dec.elementary_matrix(3) + dec.elementary_matrix(4)
        assert np.allclose(ga, ref.a, atol=1e-12)
        assert np.allclose(gb, ref.b, atol=1e-12)

    def test_stacked_modes(self):
        rng = make_rng(16)
        xs = [random_series(rng, 30) for _ in range(2)]
        dv = decompose_stacked(xs, mode=StackingMode.VERTICAL)
        dh = decompose_stacked(xs, mode=StackingMode.HORIZONTAL)
        assert dv.window == 11 and dv.trajectory.shape == (22, 20)
        assert dh.window == 21 and dh.trajectory.shape == (21, 20)
        assert dv.n_series == dh.n_series == 2

    def test_stacked_univariate_mode_rejected(self):
        rng = make_rng(17)
        xs = [random_series(rng, 12) for _ in range(2)]
        with pytest.raises(ParameterError):
            decompose_stacked(xs, mode=StackingMode.UNIVARIATE)

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
