import json

import numpy as np
import pytest

import ivssa.decomposition
import ivssa.spectral
from ivssa import (
    Grouping,
    IntervalSeries,
    ParameterError,
    StackingMode,
    decompose,
    decompose_stacked,
    phi_arrays,
    read_csv,
    reconstruct_ercs,
    select_from_decomposition,
    simulate_scenario,
    ScenarioConfig,
    stack,
    trajectory,
    trendline,
    write_series_csv,
)
from ivssa.cli import main as cli_main
from helpers import (
    assert_compares_by_identity,
    make_rng,
    random_pair_matrix,
    random_series,
    structured_series,
)
from oracles import c_norm, diag_avg_loop, hankelize


class TestGrouping:
    def test_leading(self):
        assert Grouping.leading(3).indices == (1, 2, 3)

    def test_validation(self):
        with pytest.raises(ParameterError):
            Grouping(())
        with pytest.raises(ParameterError):
            Grouping((1, 1))
        with pytest.raises(ParameterError, match="component index must be >= 1, got 0"):
            Grouping((0, 2))
        with pytest.raises(ParameterError, match="m must be >= 1, got 0"):
            Grouping.leading(0)
        # truncating would retain component 1 for 1.5
        with pytest.raises(ParameterError, match="component index must be an integer, got 1.5"):
            Grouping((1.5, 2))
        with pytest.raises(ParameterError, match="m must be an integer, got 2.5"):
            Grouping.leading(2.5)
        assert Grouping((np.int64(1), 2.0)).indices == (1, 2)
        assert Grouping.leading(2.0) == Grouping.leading(np.int64(2)) == Grouping((1, 2))
        assert Grouping((1, 10**400)).indices == (1, 10**400)


class TestDiagonalAveraging:
    """The loop reference that ``component_channels`` is checked against."""

    def test_known_example(self):
        a = np.array([[1.0, 2.0], [4.0, 6.0]])
        b = np.array([[2.0, 3.0], [5.0, 7.0]])
        assert diag_avg_loop(a).tolist() == [1.0, 3.0, 6.0]
        assert diag_avg_loop(b).tolist() == [2.0, 4.0, 7.0]

    def test_hankel_input_roundtrip(self):
        y = random_series(make_rng(1), 20)
        traj = trajectory(y, 6)
        assert np.allclose(diag_avg_loop(traj.a), y.lo, atol=1e-12)
        assert np.allclose(diag_avg_loop(traj.b), y.hi, atol=1e-12)


class TestHankelize:
    """The reference Hankel projection that acceptance criterion 3 tests."""

    def test_produces_hankel(self):
        y = random_pair_matrix(make_rng(2), 8, 13)
        for h in (hankelize(y.a), hankelize(y.b)):
            assert np.array_equal(h[1:, :-1], h[:-1, 1:])

    def test_idempotent(self):
        y = random_pair_matrix(make_rng(3), 5, 9)
        for grid in (y.a, y.b):
            h1 = hankelize(grid)
            assert np.allclose(h1, hankelize(h1), rtol=1e-14)

    def test_projection_orthogonality(self):
        # residual Y - H* is C-orthogonal to every Hankel matrix
        rng = make_rng(4)
        y = random_pair_matrix(rng, 6, 8)
        ra, rb = y.a - hankelize(y.a), y.b - hankelize(y.b)
        other = random_pair_matrix(rng, 6, 8)
        oa, ob = hankelize(other.a), hankelize(other.b)
        inner = 0.5 * (np.sum(ra * oa) + np.sum(rb * ob))
        assert abs(inner) <= 1e-10 * (c_norm(y.a, y.b) ** 2 + 1)

    def test_optimality_vs_random_hankel(self):
        rng = make_rng(5)
        y = random_pair_matrix(rng, 6, 8)
        base = c_norm(y.a - hankelize(y.a), y.b - hankelize(y.b))
        for _ in range(50):
            other = random_pair_matrix(rng, 6, 8)
            assert c_norm(y.a - hankelize(other.a), y.b - hankelize(other.b)) >= base


class TestTrendline:
    def test_full_grouping_reconstructs_input(self):
        y = random_series(make_rng(10), 40)
        dec = decompose(y, 12)
        out = trendline(dec, Grouping(tuple(range(1, dec.d + 1))))[0]
        assert np.allclose(out.lo, y.lo, atol=1e-10)
        assert np.allclose(out.hi, y.hi, atol=1e-10)

    def test_full_grouping_stacked(self):
        rng = make_rng(11)
        xs = [random_series(rng, 30) for _ in range(2)]
        for mode in (StackingMode.VERTICAL, StackingMode.HORIZONTAL):
            dec = decompose_stacked(xs, mode=mode)
            full = Grouping(tuple(range(1, dec.d + 1)))
            outs = trendline(dec, full)
            for y, out in zip(xs, outs):
                assert np.allclose(out.lo, y.lo, atol=1e-8)
                assert np.allclose(out.hi, y.hi, atol=1e-8)

    def test_per_series_groupings(self):
        rng = make_rng(12)
        xs = [random_series(rng, 25) for _ in range(2)]
        dec = decompose_stacked(xs, mode=StackingMode.VERTICAL)
        outs = trendline(dec, [Grouping.leading(1), Grouping.leading(2)])
        assert len(outs) == 2 and all(len(o) == 25 for o in outs)
        with pytest.raises(ParameterError):
            trendline(dec, [Grouping.leading(1)])

    def test_grouping_bounds(self):
        y = random_series(make_rng(13), 15)
        dec = decompose(y, 4)
        with pytest.raises(ParameterError):
            trendline(dec, Grouping((dec.d + 1,)))


class TestErcs:
    def test_compares_by_identity(self):
        dec = decompose(random_series(make_rng(14), 30), 8)
        assert_compares_by_identity(lambda: reconstruct_ercs(dec, 2))

    def test_pairs_sum_to_input(self):
        y = random_series(make_rng(14), 30)
        dec = decompose(y, 8)
        ercs = reconstruct_ercs(dec, dec.d)
        total_a = sum(p[0][0] for p in ercs.pairs)
        total_b = sum(p[0][1] for p in ercs.pairs)
        assert np.allclose(total_a, y.lo, atol=1e-10)
        assert np.allclose(total_b, y.hi, atol=1e-10)

    def test_interval_channels_are_phi_of_pairs(self):
        y = random_series(make_rng(15), 20)
        dec = decompose(y, 6)
        ercs = reconstruct_ercs(dec, 3)
        for comp, pair in zip(ercs.components, ercs.pairs):
            ga, gb = pair[0]
            assert np.allclose(comp[0].lo, np.minimum(ga, gb), atol=1e-15)
            assert np.allclose(comp[0].hi, np.maximum(ga, gb), atol=1e-15)

    def test_stacked_series_accessor(self):
        rng = make_rng(16)
        xs = [random_series(rng, 22) for _ in range(2)]
        dec = decompose_stacked(xs, mode=StackingMode.HORIZONTAL)
        ercs = reconstruct_ercs(dec, 2)
        assert len(ercs.components) == len(ercs.pairs) == 2
        for comp, pair in zip(ercs.components, ercs.pairs):
            assert len(comp) == len(pair) == 2
            for s in range(2):
                assert len(comp[s]) == 22
                assert pair[s][0].shape == pair[s][1].shape == (22,)

    def test_count_bounds(self):
        y = random_series(make_rng(17), 15)
        dec = decompose(y, 4)
        with pytest.raises(ParameterError, match=rf"component must lie in \[1, {dec.d}\], got 0"):
            reconstruct_ercs(dec, 0)
        with pytest.raises(ParameterError, match=rf"must lie in \[1, {dec.d}\], got {dec.d + 1}"):
            reconstruct_ercs(dec, dec.d + 1)
        # a non-integral count or index is named, not a TypeError
        with pytest.raises(ParameterError, match="component index must be an integer, got 2.5"):
            reconstruct_ercs(dec, 2.5)
        with pytest.raises(ParameterError, match="component index must be an integer, got 1.5"):
            dec.component_channels((1.5,))
        assert len(reconstruct_ercs(dec, 2.0).components) == 2


def _fit(mode: str, rng, n: int = 17):
    """A fit in the given mode and the trajectory matrix it decomposed."""
    if mode == "univariate":
        series, window = [random_series(rng, n)], 6
        dec = decompose(series[0], window)
    else:
        series, window = [random_series(rng, n) for _ in range(2)], 5
        dec = decompose_stacked(series, window, mode=StackingMode(mode))
    return dec, stack(series, window, StackingMode(mode))


class TestComponentChannels:
    @pytest.mark.parametrize("mode", ["univariate", "vertical", "horizontal"])
    def test_rows_match_loop_oracle(self, mode):
        dec, mat = _fit(mode, make_rng(18))
        for s in range(1, dec.n_series + 1):
            rows, cols = dec.series_block(s)
            ca, cb = dec.component_channels(range(1, dec.d + 1), s)
            assert ca.shape == cb.shape == (dec.d, dec.series_length)
            for r in range(dec.d):
                # the elementary pair matrix of component r + 1
                u = dec.eig.vectors[:, r]
                ya, yb = np.outer(u, u @ mat.a), np.outer(u, u @ mat.b)
                want_a = diag_avg_loop(ya[rows, cols])
                want_b = diag_avg_loop(yb[rows, cols])
                scale = max(np.abs(want_a).max(), np.abs(want_b).max())
                assert np.allclose(ca[r], want_a, rtol=1e-12, atol=1e-13 * scale)
                assert np.allclose(cb[r], want_b, rtol=1e-12, atol=1e-13 * scale)

    @pytest.mark.parametrize("mode", ["univariate", "vertical", "horizontal"])
    def test_series_block_shape(self, mode):
        dec, mat = _fit(mode, make_rng(19))
        for s in range(1, dec.n_series + 1):
            rows, cols = dec.series_block(s)
            assert mat.a[rows, cols].shape == (dec.window, dec.k)

    @pytest.mark.parametrize(
        "reads",
        [
            [(1,), (3,), (2,), range(1, 6)],
            [range(1, 6), (4,), (1,), (5, 2)],
            [(2, 2, 1), range(1, 4), range(1, 6)],
        ],
    )
    @pytest.mark.parametrize("mode", ["univariate", "vertical"])
    def test_kept_rows_keep_their_bits(self, mode, reads):
        """Rows are averaged once and kept; what a read returns does not
        depend on the reads before it, on how they were batched, or on the
        series read first."""
        dec, _ = _fit(mode, make_rng(21))
        fresh, _ = _fit(mode, make_rng(21))
        for s in range(dec.n_series, 0, -1):
            for indices in reads:
                got = dec.component_channels(indices, s)
                want = fresh.component_channels(range(1, 6), s)
                for channel, all_rows in zip(got, want):
                    assert channel.tobytes() == all_rows[[i - 1 for i in indices]].tobytes()

    def test_returned_rows_are_copies(self):
        dec, _ = _fit("univariate", make_rng(22))
        first = dec.component_channels(range(1, 4))
        want = [c.copy() for c in first]
        for c in first:
            c[:] = np.nan
        for c, w in zip(dec.component_channels(range(1, 4)), want):
            assert c.tobytes() == w.tobytes()

    def test_non_leading_first_read(self, monkeypatch):
        """A first read of component 5 alone keeps components 1..5, and a
        read of 1..7 then averages only 6 and 7; both return a fresh fit's
        bytes."""
        y = random_series(make_rng(23), 40)
        dec, fresh = decompose(y, 12), decompose(y, 12)
        want = fresh.component_channels(range(1, 8))
        averaged = []
        kernel = ivssa.decomposition._averaged

        def record(u, *args):
            averaged.append(len(u))
            return kernel(u, *args)

        monkeypatch.setattr(ivssa.decomposition, "_averaged", record)
        for indices in ((5,), range(1, 8)):
            got = dec.component_channels(indices)
            for channel, all_rows in zip(got, want):
                assert channel.tobytes() == all_rows[[i - 1 for i in indices]].tobytes()
        assert averaged == [5, 2]

    def test_readme_pipeline_averages_each_component_once(self, monkeypatch):
        averaged = []
        kernel = ivssa.decomposition._averaged

        def record(u, *args):
            averaged.append(len(u))
            return kernel(u, *args)

        monkeypatch.setattr(ivssa.decomposition, "_averaged", record)
        y = structured_series(120, seed=5, noise=0.3)
        dec = decompose(y)
        sel = select_from_decomposition(dec, y)
        assert sel.converged and sel.m >= 2
        reconstruct_ercs(dec, sel.m)
        trendline(dec, Grouping.leading(sel.m))
        assert sum(averaged) == sel.m

    def test_bounds(self):
        dec, _ = _fit("vertical", make_rng(20))
        with pytest.raises(ParameterError):
            dec.series_block(3)
        with pytest.raises(ParameterError):
            dec.component_channels((1,), 0)
        with pytest.raises(ParameterError):
            dec.component_channels((dec.d + 1,))
        with pytest.raises(ParameterError):
            dec.component_channels((0,))

    def test_series_index_is_an_integer(self):
        """``series_block`` owns the series-index check: a non-integral index
        is named as such, and an integral float or a bool keys the kept rows
        by an int."""
        y = structured_series(60, seed=12, noise=0.3)
        dec = decompose(y)
        for call in (
            lambda: dec.component_channels((1,), 1.5),
            lambda: select_from_decomposition(dec, y, series_index=1.5),
        ):
            with pytest.raises(ParameterError, match=r"^series index must be an integer, got 1.5$"):
                call()
        with pytest.raises(ParameterError, match=r"^series index must lie in \[1, 1\], got 2$"):
            select_from_decomposition(dec, y, series_index=2)
        want = decompose(y).component_channels((1, 2))
        for index in (1.0, True):
            got = dec.component_channels((1, 2), index)
            assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))
        assert [type(k) for k in dec._rows] == [int]

    def test_largest_index_is_checked_first(self):
        """A grouping past d (the CLI's fixed:500 on a 1000-row fit) is
        rejected naming its largest index, before any block past the
        known leading components is projected."""
        t = np.arange(1000.0)
        mid = 10 + 0.01 * t + sum(np.sin(2 * np.pi * t / p) for p in (7, 11, 13, 17, 23, 29, 31))
        y = IntervalSeries(mid - 1 - 0.1 * np.sin(t / 5), mid + 1 + 0.1 * np.cos(t / 3))
        dec = decompose(y)
        known = dec.eig._known.shape[1]
        dec.component_channels((1,))
        assert list(dec._w) == [0]
        message = rf"^component must lie in \[1, {dec.d}\], got 500$"
        assert known < dec.d < 500
        with pytest.raises(ParameterError, match=message):
            dec.component_channels(range(1, 501))
        with pytest.raises(ParameterError, match=message):
            trendline(dec, Grouping.leading(500))
        assert list(dec._w) == [0]


class TestOnePrefixSum:
    """The CLI document, ``trendline`` and the selection scan sum the same
    component channels in the same order, so their trendlines agree bitwise."""

    @pytest.mark.parametrize("mode", ["univariate", "vertical", "horizontal"])
    def test_trendlines_bitwise_equal(self, mode, tmp_path, monkeypatch):
        path = str(tmp_path / "in.csv")
        if mode == "univariate":
            write_series_csv(path, structured_series(60, seed=12, noise=0.3))
        else:
            data = simulate_scenario(ScenarioConfig.scenario_a(60, seed=3))
            write_series_csv(path, [data.x, data.y])
        out = str(tmp_path / "out.json")
        stack = "horizontal" if mode == "horizontal" else "vertical"
        argv = ["decompose", "--input", path, "--out", out, "--stack", stack]
        assert cli_main(argv) == 0
        with open(out, encoding="utf-8") as fh:
            doc = json.load(fh)
        series = read_csv(path)
        dec = decompose_stacked(series, mode=StackingMode(doc["params"]["mode"]))
        assert dec.window == doc["params"]["window"]

        scanned = []
        whiteness = ivssa.spectral._whiteness_rows

        def record(y_lo, y_hi, lo, hi, *args):
            # every prefix row of the block, in scan order
            scanned.extend(zip(lo.copy(), hi.copy()))
            return whiteness(y_lo, y_hi, lo, hi, *args)

        monkeypatch.setattr(ivssa.spectral, "_whiteness_rows", record)
        for s, (y, rec) in enumerate(zip(series, doc["series"]), start=1):
            m = rec["m"]
            assert m >= 2  # a single component is trivially summed alike
            scanned.clear()
            assert select_from_decomposition(dec, y, series_index=s).m == m
            doc_lo, doc_hi = phi_arrays(
                np.array(rec["trendline"]["raw_a"]), np.array(rec["trendline"]["raw_b"])
            )
            for i, (scan_lo, scan_hi) in enumerate(scanned, start=1):
                trend = trendline(dec, Grouping.leading(i))[s - 1]
                assert trend.lo.tobytes() == scan_lo.tobytes()
                assert trend.hi.tobytes() == scan_hi.tobytes()
            # a block may test prefixes past m; prefix m is row m - 1
            assert len(scanned) >= m
            assert doc_lo.tobytes() == scanned[m - 1][0].tobytes()
            assert doc_hi.tobytes() == scanned[m - 1][1].tobytes()
            assert np.array(rec["trendline"]["lo"]).tobytes() == doc_lo.tobytes()
