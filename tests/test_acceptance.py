"""End-to-end acceptance checks.

Each test covers one numbered criterion; the terminal summary (see
conftest.py) prints one PASS/FAIL line per criterion after the run.
Criteria 5 and 6 share a single module-scoped Monte Carlo run.
"""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from ivssa import (
    Grouping,
    IntervalSeries,
    decompose,
    forecast_recurrent,
    ks_critical_value,
    read_csv,
    recurrence_coefficients,
    run_monte_carlo,
    select_params_oos,
    symbolic_covariance,
    trajectory,
    trendline,
    write_series_csv,
)
from helpers import (
    child_env,
    make_rng,
    random_degenerate_series,
    random_pair_matrix,
    random_series,
    structured_series,
)
import oracles

CRITERIA = {
    1: "classical SSA equivalence on degenerate series",
    2: "reconstruction identity Y = sum of elementary parts",
    3: "hankelization beats random Hankel perturbations",
    4: "symbolic covariance is positive semidefinite",
    5: "Monte Carlo mean HR decreases with sample size",
    6: "selected-m mode tracks the HR-minimizing m",
    7: "KS whiteness test holds its size on white noise",
    8: "exact forecasts of an order-2 recurrence",
    9: "grid search matches the brute-force objective table",
    10: "CLI determinism and full-grouping round-trip",
}

#: Short per-criterion details filled in by the tests, shown in the summary.
NOTES: dict[int, str] = {}


def rel_err(got: np.ndarray, want: np.ndarray) -> float:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def test_criterion_01_classical_equivalence():
    t0 = time.perf_counter()
    rng = make_rng(8101)
    worst = 0.0
    for _ in range(20):
        y = random_degenerate_series(rng, 60)
        x = y.lo
        dec = decompose(y, 20)
        _, u, s, vt = oracles.ssa_decompose(x, 20)
        d = dec.d
        assert d >= 3
        lam1 = s[0] ** 2
        assert np.allclose(
            dec.eig.values[:d], s[:d] ** 2, rtol=1e-8, atol=1e-8 * lam1
        )
        for i in range(1, d + 1):
            mine = trendline(dec, Grouping((i,)))[0]
            ref = oracles.ssa_erc(u, s, vt, i - 1)
            err = max(rel_err(mine.lo, ref), rel_err(mine.hi, ref))
            worst = max(worst, err)
            assert err <= 1e-8
        m = 3
        mine_trend = trendline(dec, Grouping.leading(m))[0]
        ref_trend = oracles.ssa_reconstruct(u, s, vt, range(m))
        assert rel_err(mine_trend.lo, ref_trend) <= 1e-8
        coef = recurrence_coefficients(dec.eig, Grouping.leading(m))
        ref_alpha = oracles.ssa_lrr(u, range(m))
        assert rel_err(coef.alpha, ref_alpha) <= 1e-8
        fc = forecast_recurrent(mine_trend, coef, 5)
        ref_fc = oracles.ssa_forecast(ref_trend, ref_alpha, 5)
        assert rel_err(fc.values.lo, ref_fc) <= 1e-8
        assert rel_err(fc.values.hi, ref_fc) <= 1e-8
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    NOTES[1] = f"20 series, worst ERC rel err {worst:.1e}, {elapsed:.1f}s"


def test_criterion_02_reconstruction_identity():
    t0 = time.perf_counter()
    rng = make_rng(8202)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(8, 201))
        window = int(rng.integers(2, n))
        y = random_series(rng, n)
        dec = decompose(y, window)
        traj = trajectory(y, window)
        u = dec.eig.vectors[:, : dec.d]
        ratio = oracles.c_norm(
            traj.a - u @ (u.T @ traj.a), traj.b - u @ (u.T @ traj.b)
        ) / oracles.c_norm(traj.a, traj.b)
        worst = max(worst, ratio)
        assert ratio <= 1e-8
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    NOTES[2] = f"50 series, worst residual {worst:.1e}, {elapsed:.1f}s"


def test_criterion_03_hankelization_optimality():
    t0 = time.perf_counter()
    rng = make_rng(8303)
    strict = 0
    nonzero = 0
    for _ in range(20):
        l = int(rng.integers(2, 16))
        k = int(rng.integers(2, 26))
        y = random_pair_matrix(rng, l, k)
        ha, hb = oracles.hankelize(y.a), oracles.hankelize(y.b)
        d0 = oracles.c_norm(y.a - ha, y.b - hb)
        idx = np.arange(l)[:, None] + np.arange(k)[None, :]
        for _ in range(1000):
            amp = d0 * 10.0 ** rng.uniform(-3.0, 0.5)
            ea = amp * rng.standard_normal(l + k - 1)
            eb = amp * rng.standard_normal(l + k - 1)
            if oracles.c_norm(ea[idx], eb[idx]) > 0.0:
                nonzero += 1
            d1 = oracles.c_norm(y.a - (ha + ea[idx]), y.b - (hb + eb[idx]))
            assert d0 <= d1
            if d1 > d0:
                strict += 1
    assert nonzero == 20 * 1000
    assert strict >= 0.99 * nonzero
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    NOTES[3] = f"{strict}/{nonzero} strictly worse perturbations, {elapsed:.1f}s"


def test_criterion_04_covariance_psd():
    t0 = time.perf_counter()
    rng = make_rng(8404)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(8, 121))
        window = int(rng.integers(2, n))
        y = random_series(rng, n, scale=float(rng.uniform(0.1, 10.0)))
        s = symbolic_covariance(trajectory(y, window))
        evs = np.linalg.eigvalsh(s)
        ratio = float(evs[0] / evs[-1])
        worst = min(worst, ratio)
        assert evs[0] >= -1e-10 * evs[-1]
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    NOTES[4] = f"100 series, worst min-eig ratio {worst:.1e}, {elapsed:.1f}s"


@pytest.fixture(scope="module")
def mc_study():
    """The study's hr_summary and selection_summary records, and its time."""
    t0 = time.perf_counter()
    report = run_monte_carlo(reps=200)
    elapsed = time.perf_counter() - t0
    return report.hr_summary(), report.selection_summary(), elapsed


def best_mean_hr(hr_summary, scenario, n, method, series) -> tuple[float, int]:
    """(mean HR, m) of the smallest mean HR of one column, ties to smaller m."""
    key = f"hr_{series}_mean"
    return min(
        (r[key], r["m"])
        for r in hr_summary
        if (r["scenario"], r["n"], r["method"]) == (scenario, n, method)
        and r[key] is not None
    )


def test_criterion_05_mc_hr_trend(mc_study):
    hr_summary, _, elapsed = mc_study
    assert elapsed < 900.0
    # HR is recorded against the true means of x, plus y for the stacked fits
    streams = [
        ("ivssa", "x"),
        ("v-mivssa", "x"),
        ("v-mivssa", "y"),
        ("h-mivssa", "x"),
        ("h-mivssa", "y"),
    ]
    drops = []
    for scenario in ("A", "B"):
        for method, series in streams:
            best = {}
            for n in (100, 250):
                best[n] = best_mean_hr(hr_summary, scenario, n, method, series)[0]
            assert best[250] < best[100], (scenario, method, series, best)
            drops.append(best[100] - best[250])
    NOTES[5] = (
        f"10 cells, HR drop {min(drops):.3f}..{max(drops):.3f}, {elapsed:.0f}s"
    )


def test_criterion_06_selection_alignment(mc_study):
    hr_summary, selection_summary, _ = mc_study
    modes = {
        (r["scenario"], r["n"], r["method"], r["series"]): r["mode"]
        for r in selection_summary
    }
    # one histogram per (scenario, n) cell: the univariate whiteness
    # selection on x, judged against the matching univariate HR curve
    diffs = []
    for scenario in ("A", "B"):
        for n in (100, 250):
            mode = modes[(scenario, n, "ivssa", "x")]
            best = best_mean_hr(hr_summary, scenario, n, "ivssa", "x")[1]
            assert abs(mode - best) <= 1, (scenario, n, mode, best)
            diffs.append(abs(mode - best))
    NOTES[6] = f"4 cells, |mode - argmin| in {sorted(set(diffs))}"


def test_criterion_07_ks_size():
    t0 = time.perf_counter()
    crit = ks_critical_value(0.05)
    zeros = np.zeros(200)
    rejects = 0
    for rep in range(1000):
        e = make_rng(rep).standard_normal(200)
        y = IntervalSeries(e, e.copy())
        _, accepted, perfect = oracles.residual_whiteness(y, zeros, zeros, crit)
        assert not perfect
        rejects += not accepted
    rate = rejects / 1000.0
    assert 0.03 <= rate <= 0.08
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    NOTES[7] = f"rejection rate {rate:.3f} at alpha 0.05, {elapsed:.1f}s"


def test_criterion_08_forecast_exactness():
    t = np.arange(1, 51, dtype=float)
    vals = 2.0 * 1.03**t + 0.97**t
    y = IntervalSeries(vals, vals.copy())
    dec = decompose(y)
    assert dec.d == 2
    coef = recurrence_coefficients(dec.eig, Grouping.leading(2))
    trend = trendline(dec, Grouping.leading(2))[0]
    fc = forecast_recurrent(trend, coef, 10)
    tf = np.arange(51, 61, dtype=float)
    expect = 2.0 * 1.03**tf + 0.97**tf
    err = max(rel_err(fc.values.lo, expect), rel_err(fc.values.hi, expect))
    assert err <= 1e-6
    NOTES[8] = f"10-step rel err {err:.1e}"


def test_criterion_09_brute_force_equivalence():
    y = structured_series(30, seed=930, noise=0.2)
    l_grid = (8, 10)
    m_grid = (1, 2)
    res = select_params_oos(y, l_grid=l_grid, m_grid=m_grid, w0=20, p=5)
    ref = oracles.oos_objective_loop(y, l_grid, m_grid, w0=20, p=5, stride=1)
    finite = 0
    for cell, want in ref.items():
        got = res.objective[cell]
        if math.isinf(want):
            assert math.isinf(got)
        else:
            finite += 1
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
    best = min((v, cell[1], cell[0]) for cell, v in ref.items())
    assert (res.window, res.m) == (best[2], best[1])
    NOTES[9] = f"4 cells ({finite} finite), best (l*, m*) = ({res.window}, {res.m})"


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "ivssa", *args],
        capture_output=True,
        text=True,
        env=child_env(),
    )


def test_criterion_10_cli_determinism_roundtrip(tmp_path):
    t0 = time.perf_counter()
    out1 = str(tmp_path / "run1.json")
    out2 = str(tmp_path / "run2.json")
    for out in (out1, out2):
        res = run_cli("mc", "--reps", "10", "--seed", "7", "--out", out)
        assert res.returncode == 0, res.stderr
    with open(out1, "rb") as fh:
        bytes1 = fh.read()
    with open(out2, "rb") as fh:
        bytes2 = fh.read()
    assert bytes1 == bytes2

    inp = str(tmp_path / "input.csv")
    write_series_csv(inp, structured_series(40, seed=7, noise=0.3))
    probe = run_cli("decompose", "--input", inp, "--grouping", "fixed:1")
    assert probe.returncode == 0, probe.stderr
    d = json.loads(probe.stdout)["d"]
    full = run_cli("decompose", "--input", inp, "--grouping", f"fixed:{d}")
    assert full.returncode == 0, full.stderr
    rec = json.loads(full.stdout)["series"][0]
    y = read_csv(inp)[0]
    err = max(
        float(np.max(np.abs(np.array(rec["trendline"]["lo"]) - y.lo))),
        float(np.max(np.abs(np.array(rec["trendline"]["hi"]) - y.hi))),
    )
    assert err <= 1e-8
    elapsed = time.perf_counter() - t0
    NOTES[10] = (
        f"{len(bytes1)} identical bytes, round-trip err {err:.1e}, {elapsed:.0f}s"
    )
