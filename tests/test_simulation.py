import importlib.util
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import ivssa.simulation as simulation
from ivssa import (
    Grouping,
    InvalidValueError,
    McReport,
    McRow,
    McSelectionRow,
    ParameterError,
    ScenarioConfig,
    ShapeError,
    StackingMode,
    decompose,
    decompose_stacked,
    hausdorff_residual_mean,
    run_monte_carlo,
    simulate_scenario,
    trendline,
)
from helpers import child_env, make_rng, random_series
from oracles import (
    hausdorff_mean_loop,
    hr_summary_loop,
    hr_values_loop,
    selection_summary_loop,
)


def noise_free(n: int) -> "ScenarioData":
    return simulate_scenario(ScenarioConfig(n=n, rho=0.0, sigma2=0.0, seed=0))


class TestScenarioConfig:
    def test_named_scenarios(self):
        a = ScenarioConfig.scenario_a(50, seed=3)
        b = ScenarioConfig.scenario_b(50, seed=3)
        assert (a.rho, a.sigma2) == (0.0, 1.0)
        assert (b.rho, b.sigma2) == (0.5, 1.0)
        assert ScenarioConfig.from_name("a", 50, 3) == a
        assert ScenarioConfig.from_name(" B ", 50, 3) == b

    def test_validation(self):
        with pytest.raises(ParameterError):
            ScenarioConfig.from_name("C", 50, 3)
        with pytest.raises(ParameterError, match="n must be >= 4, got 3"):
            ScenarioConfig(n=3, rho=0.0, sigma2=1.0, seed=0)
        with pytest.raises(ParameterError, match="n must be an integer, got 50.5"):
            ScenarioConfig(n=50.5, rho=0.0, sigma2=1.0, seed=0)
        with pytest.raises(ParameterError, match="seed must be an integer, got 1.5"):
            ScenarioConfig(n=50, rho=0.0, sigma2=1.0, seed=1.5)
        with pytest.raises(ParameterError, match="seed must be >= 0, got -1"):
            ScenarioConfig(n=50, rho=0.0, sigma2=1.0, seed=-1)
        with pytest.raises(ParameterError):
            ScenarioConfig(n=50, rho=0.0, sigma2=-1.0, seed=0)
        with pytest.raises(ParameterError):
            # noise covariance [[1, 1.2], [1.2, 1]] is indefinite
            ScenarioConfig(n=50, rho=1.2, sigma2=1.0, seed=0)

    def test_integral_sizes_stored_as_ints(self):
        cfg = ScenarioConfig(n=50.0, rho=0.0, sigma2=1.0, seed=np.int64(3))
        assert cfg == ScenarioConfig.scenario_a(50, seed=3)
        assert type(cfg.n) is int and type(cfg.seed) is int
        assert ScenarioConfig.scenario_a(50, seed=10**400).seed == 10**400


class TestSimulateScenario:
    def test_mean_curves_spot_values(self):
        data = noise_free(8)
        for i in (1, 5, 8):
            t = 2.0 * math.pi * i / 8
            mu_x = 8.0 + t + math.sin(math.pi * t)
            mu_y = math.sqrt(t) + math.cos(math.pi * t / 2.0)
            assert data.x.lo[i - 1] == pytest.approx(mu_x, rel=1e-14)
            assert data.x.hi[i - 1] == pytest.approx(mu_x + 2.0, rel=1e-14)
            assert data.y.lo[i - 1] == pytest.approx(mu_y, rel=1e-14)
            assert data.y.hi[i - 1] == pytest.approx(2.0 * (mu_y + 1.0), rel=1e-14)

    def test_noise_free_sample_equals_means(self):
        data = noise_free(40)
        assert data.x == data.x_mean
        assert data.y == data.y_mean

    def test_widths_unaffected_by_noise(self):
        data = simulate_scenario(ScenarioConfig.scenario_b(60, seed=11))
        x_widths = data.x.hi - data.x.lo
        y_widths = data.y.hi - data.y.lo
        assert np.allclose(x_widths, 2.0)
        assert np.allclose(x_widths, data.x_mean.hi - data.x_mean.lo)
        assert np.allclose(y_widths, data.y_mean.hi - data.y_mean.lo)
        # y widths inherit the mean level, so they vary over time
        assert y_widths.std() > 0.1

    def test_seed_determinism(self):
        cfg = ScenarioConfig.scenario_a(50, seed=99)
        one = simulate_scenario(cfg)
        two = simulate_scenario(cfg)
        assert one.x == two.x and one.y == two.y
        other = simulate_scenario(ScenarioConfig.scenario_a(50, seed=100))
        assert not np.allclose(one.x.lo, other.x.lo)

    def test_noise_moments_scenario_b(self):
        n = 200_000
        data = simulate_scenario(ScenarioConfig.scenario_b(n, seed=5))
        e_x = data.x.lo - data.x_mean.lo
        e_y = data.y.lo - data.y_mean.lo
        assert e_x.var() == pytest.approx(1.0, abs=0.03)
        assert e_y.var() == pytest.approx(1.0, abs=0.03)
        cov = float(np.mean(e_x * e_y) - e_x.mean() * e_y.mean())
        assert cov == pytest.approx(0.5, abs=0.02)

    def test_noise_independent_scenario_a(self):
        n = 200_000
        data = simulate_scenario(ScenarioConfig.scenario_a(n, seed=6))
        e_x = data.x.lo - data.x_mean.lo
        e_y = data.y.lo - data.y_mean.lo
        cov = float(np.mean(e_x * e_y) - e_x.mean() * e_y.mean())
        assert cov == pytest.approx(0.0, abs=0.02)


class TestHausdorffResidualMean:
    def test_known_value(self):
        from ivssa import IntervalSeries

        a = IntervalSeries([0.0, 1.0], [1.0, 2.0])
        b = IntervalSeries([0.5, 1.0], [1.0, 5.0])
        # per-time distances 0.5 and 3.0
        assert hausdorff_residual_mean(a, b) == pytest.approx(1.75)

    def test_matches_loop_oracle(self):
        rng = make_rng(21)
        for _ in range(10):
            a = random_series(rng, 30)
            b = random_series(rng, 30)
            assert hausdorff_residual_mean(a, b) == pytest.approx(
                hausdorff_mean_loop(a.lo, a.hi, b.lo, b.hi), rel=1e-12
            )

    def test_length_mismatch(self):
        from ivssa import IntervalSeries

        with pytest.raises(ShapeError):
            hausdorff_residual_mean(
                IntervalSeries([0.0], [1.0]), IntervalSeries([0.0, 1.0], [1.0, 2.0])
            )


@pytest.fixture(scope="module")
def small_report():
    return run_monte_carlo(
        scenarios="A",
        n_list=(40,),
        m_list=(1, 2, 3),
        reps=3,
        base_seed=7,
    )


class TestRunMonteCarlo:
    def test_row_counts_and_seeds(self, small_report):
        rep = small_report
        assert len(rep.hr_rows) == 3 * 3 * 3  # reps x methods x m values
        assert len(rep.selection_rows) == 3 * 3 * 2  # reps x methods x series
        assert {r.seed for r in rep.hr_rows} == {7, 8, 9}
        assert all(r.seed == 7 + r.rep for r in rep.hr_rows)

    def test_hr_matches_direct_fit(self, small_report):
        # recompute every method's cells of one replication straight from
        # the public pipeline, for both series
        data = simulate_scenario(ScenarioConfig.scenario_a(40, seed=8))
        truths = (data.x_mean, data.y_mean)
        vertical = decompose_stacked([data.x, data.y], mode=StackingMode.VERTICAL)
        horizontal = decompose_stacked([data.x, data.y], mode=StackingMode.HORIZONTAL)
        fits = {
            "ivssa": [(decompose(data.x), 0), (decompose(data.y), 0)],
            "v-mivssa": [(vertical, 0), (vertical, 1)],
            "h-mivssa": [(horizontal, 0), (horizontal, 1)],
        }
        rows = [r for r in small_report.hr_rows if r.rep == 1]
        assert len(rows) == 9
        for row in rows:
            got = (row.hr_x, row.hr_y)
            for hr, truth, (dec, s) in zip(got, truths, fits[row.method]):
                trend = trendline(dec, Grouping.leading(row.m))[s]
                assert hr == hausdorff_residual_mean(truth, trend)

    def test_determinism(self, small_report):
        again = run_monte_carlo(
            scenarios="A", n_list=(40,), m_list=(1, 2, 3), reps=3, base_seed=7
        )
        assert again.to_dict() == small_report.to_dict()

    def test_report_summaries(self, small_report):
        rep = small_report
        summary = rep.hr_summary()
        assert summary == hr_summary_loop(rep)
        assert len(summary) == 9
        rec = next(r for r in summary if (r["method"], r["m"]) == ("ivssa", 1))
        assert rec["hr_x_failed"] == 0 and rec["hr_x_q25"] > 0  # three positive HRs
        sels = rep.selection_summary()
        assert len(sels) == 6
        hist = next(
            r["histogram"] for r in sels if (r["method"], r["series"]) == ("h-mivssa", "x")
        )
        assert sum(hist.values()) == 3

    def test_summary_matches_cell_by_cell_scan(self):
        # at n = 10 the univariate fit has rank 6: its m = 7 and 8 cells fail
        rep = run_monte_carlo(scenarios="A", n_list=(10,), reps=2, base_seed=3)
        summary = rep.hr_summary()
        assert summary == hr_summary_loop(rep)
        assert rep.selection_summary() == selection_summary_loop(rep)
        assert any(r["hr_x_failed"] == 2 for r in summary)

    def test_summary_consistent_with_rows(self, small_report):
        recs = [
            r
            for r in small_report.hr_summary()
            if r["method"] == "ivssa" and r["m"] == 3
        ]
        assert len(recs) == 1
        assert recs[0]["hr_x_mean"] == pytest.approx(
            hr_values_loop(small_report, "A", 40, "ivssa", 3, "x").mean()
        )
        assert recs[0]["hr_x_failed"] == 0

    def test_validation(self):
        with pytest.raises(ParameterError):
            run_monte_carlo(scenarios="Q", reps=1)
        with pytest.raises(ParameterError, match="reps must be >= 1, got 0"):
            run_monte_carlo(reps=0)
        with pytest.raises(ParameterError, match="reps must be an integer, got 1.5"):
            run_monte_carlo(reps=1.5)
        with pytest.raises(ParameterError, match="base_seed must be an integer, got 1.5"):
            run_monte_carlo(reps=1, base_seed=1.5)
        with pytest.raises(ParameterError, match="base_seed must be >= 0, got -1"):
            run_monte_carlo(reps=1, base_seed=-1)
        with pytest.raises(ParameterError):
            run_monte_carlo(methods=("ivssa", "other"), reps=1)
        with pytest.raises(ParameterError, match="m list entry must be >= 1, got 0"):
            run_monte_carlo(m_list=(0, 1), reps=1)
        with pytest.raises(ParameterError, match="m list must not be empty"):
            run_monte_carlo(m_list=(), reps=1)
        # checked up front: a bad alpha is a configuration error, not a
        # failed selection in every replication
        for alpha in (0.0, 1.0, 2.0, math.nan):
            with pytest.raises(ParameterError, match="alpha"):
                run_monte_carlo(reps=1, alpha=alpha)
        with pytest.raises(ParameterError, match="repeat"):
            run_monte_carlo(methods=("ivssa", "ivssa"), reps=1)
        # non-integral sizes are rejected up front, not truncated
        with pytest.raises(ParameterError, match="n list entry must be an integer, got 40.5"):
            run_monte_carlo(n_list=(40.5,), reps=1)
        with pytest.raises(ParameterError, match="m list entry must be an integer, got 1.5"):
            run_monte_carlo(m_list=(1.5, 2), reps=1)
        with pytest.raises(ParameterError, match="max_m must be an integer, got 2.5"):
            run_monte_carlo(reps=1, max_m=2.5)

    def test_integral_size_types_accepted(self, small_report):
        rep = run_monte_carlo(
            scenarios="A",
            n_list=(40.0,),
            m_list=(np.int64(1), 2.0, 3),
            reps=3.0,
            base_seed=np.int64(7),
            max_m=40.0,
        )
        assert rep.to_dict() == small_report.to_dict()
        assert type(rep.reps) is int and type(rep.base_seed) is int

    # a repeated n or scenario would duplicate every summary record of its
    # cells and count twice the replications as failed (hr_x_failed = -2 at
    # reps = 2); an empty list would run an empty study

    def test_repeated_n_rejected(self):
        with pytest.raises(ParameterError, match="n list must not repeat"):
            run_monte_carlo(scenarios="A", n_list=(40, 40), reps=2)

    def test_repeated_scenario_rejected(self):
        with pytest.raises(ParameterError, match="scenarios must not repeat"):
            run_monte_carlo(scenarios=("A", "a"), n_list=(40,), reps=2)

    def test_empty_methods_rejected(self):
        with pytest.raises(ParameterError, match="methods must not be empty"):
            run_monte_carlo(methods=(), reps=1)

    def test_empty_n_list_rejected(self):
        with pytest.raises(ParameterError, match="n list must not be empty"):
            run_monte_carlo(n_list=(), reps=1)

    def test_failed_fit_keeps_selection_rows(self, monkeypatch):
        def failing(series, mode):
            raise InvalidValueError(f"{mode} fit failed")

        monkeypatch.setattr(simulation, "decompose_stacked", failing)
        rep = run_monte_carlo(
            scenarios="A", n_list=(40,), m_list=(1, 2), reps=1, base_seed=7
        )
        for method in ("v-mivssa", "h-mivssa"):
            hr = [r for r in rep.hr_rows if r.method == method]
            assert [(r.hr_x, r.hr_y) for r in hr] == [(None, None)] * 2
            sel = [r for r in rep.selection_rows if r.method == method]
            assert [(r.series, r.m, r.converged) for r in sel] == [
                ("x", None, False),
                ("y", None, False),
            ]
        assert len(rep.selection_rows) == 3 * 2
        failed = {(r["method"], r["m"]): r["hr_y_failed"] for r in rep.hr_summary()}
        assert failed[("ivssa", 2)] == 0 and failed[("v-mivssa", 2)] == 1

    def test_failed_selection_keeps_hr_rows(self, monkeypatch):
        # a selection that raises after its fits succeeded is recorded as
        # failed, and the HR rows of those fits are kept
        def failing(*args, **kwargs):
            raise ParameterError("selection failed")

        args = dict(scenarios="A", n_list=(40,), m_list=(1, 2), reps=1, base_seed=7)
        want = run_monte_carlo(**args)
        monkeypatch.setattr(simulation, "select_from_decomposition", failing)
        got = run_monte_carlo(**args)
        assert got.hr_rows == want.hr_rows
        assert all(r.hr_x is not None for r in got.hr_rows)
        assert len(got.selection_rows) == 3 * 2
        assert all((r.m, r.converged) == (None, False) for r in got.selection_rows)

    def test_max_m_below_one_rejected(self):
        # checked before any replication runs, not recorded as failed rows
        for bad in (0, -3):
            with pytest.raises(ParameterError, match=f"got {bad}"):
                run_monte_carlo(reps=1, max_m=bad)

    def test_short_n_rejected_before_any_replication(self, monkeypatch):
        # the simulator needs n >= 4; a short entry late in the list must not
        # cost the replications of the entries before it
        calls = []
        real = simulation._mc_replication
        monkeypatch.setattr(
            simulation, "_mc_replication", lambda args: calls.append(args) or real(args)
        )
        with pytest.raises(ParameterError, match="an n list entry must be >= 4, got 3"):
            run_monte_carlo(scenarios="A", n_list=(250, 3), reps=20)
        assert calls == []


MC_SCRIPT = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir, "scripts", "run_mc_study.py"
)


def load_mc_script():
    spec = importlib.util.spec_from_file_location("run_mc_study", MC_SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_mc_script(*args: str, cwd: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, MC_SCRIPT, *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=child_env(),
    )


class TestRunMcStudyScript:
    def test_small_study_writes_outputs(self, tmp_path):
        # at n = 10 the univariate fit has no HR for m = 7 and 8
        for n in (40, 10):
            proc = run_mc_script(
                "--reps", "2", "--n-list", str(n), "--scenario", "A", "--out", f"mc{n}",
                cwd=tmp_path,
            )
            assert proc.returncode == 0, proc.stderr
            with open(tmp_path / f"mc{n}.json") as fh:
                doc = json.load(fh)
            assert doc["command"] == "mc"
            assert len(doc["hr_rows"]) == 2 * 3 * 8  # reps x methods x m values
            assert len(doc["selection_rows"]) == 2 * 3 * 2  # reps x methods x series
            lines = (tmp_path / f"mc{n}.hr_summary.csv").read_text().splitlines()
            assert lines[0].startswith("scenario,n,method,m,hr_x_mean")
            assert len(lines) == 1 + 3 * 8  # header + methods x m values
            assert f"scenario A, n = {n}" in proc.stdout

    def test_column_without_hr(self, tmp_path):
        # at n = 10 the univariate fit has rank 6: its column has no HR at
        # m = 7 or 8, and prints nan with no column best
        proc = run_mc_script(
            "--reps", "1", "--n-list", "10", "--m-list", "7,8", "--scenario", "A",
            cwd=tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        rows = [line.split() for line in proc.stdout.splitlines()]
        assert [r[1] for r in rows if r[:1] in (["7"], ["8"])] == ["nan", "nan"]

    def test_threads_flag_rejected(self, tmp_path):
        proc = run_mc_script("--reps", "1", "--threads", "2", cwd=tmp_path)
        assert proc.returncode == 2
        assert "--threads" in proc.stderr
        assert not list(tmp_path.iterdir())


class TestReportTieBreaks:
    def build(self, sel_ms, hr_by_m):
        hr_rows = []
        sel_rows = []
        for rep, m_sel in enumerate(sel_ms):
            for m, hr in hr_by_m.items():
                hr_rows.append(
                    McRow(
                        scenario="A", n=10, method="ivssa", m=m, rep=rep,
                        seed=rep, hr_x=hr, hr_y=hr,
                    )
                )
            sel_rows.append(
                McSelectionRow(
                    scenario="A", n=10, method="ivssa", series="x", rep=rep,
                    seed=rep, m=m_sel, converged=m_sel is not None,
                )
            )
        return McReport(
            scenarios=("A",), n_list=(10,), m_list=tuple(sorted(hr_by_m)),
            methods=("ivssa",), reps=len(sel_ms), base_seed=0, alpha=0.05,
            generator="pcg64", hr_rows=tuple(hr_rows),
            selection_rows=tuple(sel_rows),
        )

    @staticmethod
    def selection_x(rep) -> dict:
        (rec,) = [r for r in rep.selection_summary() if r["series"] == "x"]
        return rec

    def test_mode_tie_prefers_smaller(self):
        rep = self.build([1, 2, 2, 1], {1: 0.5, 2: 0.5})
        assert self.selection_x(rep)["mode"] == 1

    def test_failed_selections_excluded(self):
        rep = self.build([3, None, 3], {3: 0.1})
        assert self.selection_x(rep)["histogram"] == {3: 2}

    def test_empty_cell_has_no_statistics(self):
        rep = self.build([None], {1: None})
        rec = self.selection_x(rep)
        assert (rec["histogram"], rec["mode"]) == ({}, None)
        (hr,) = rep.hr_summary()
        assert hr["hr_x_mean"] is None and hr["hr_x_failed"] == 1

    def test_script_best_m_ties_to_smaller(self):
        best_m = load_mc_script().best_m
        assert best_m({1: 0.5, 2: 0.5}) == 1
        assert best_m({1: None, 2: 0.7, 3: 0.5}) == 3
        assert best_m({1: None}) is None

    def test_script_table_of_an_empty_cell(self, capsys):
        # no HR and no selection: nan with no column best, and "-" for the mode
        doc = self.build([None], {1: None, 2: None}).to_dict()
        load_mc_script().print_cell(doc, "A", 10)
        rows = [line.split() for line in capsys.readouterr().out.splitlines()[-3:]]
        assert rows == [["1", "nan"], ["2", "nan"], ["mode", "-"]]
