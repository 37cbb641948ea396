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
from oracles import hausdorff_mean_loop


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
        with pytest.raises(ParameterError):
            ScenarioConfig(n=3, rho=0.0, sigma2=1.0, seed=0)
        with pytest.raises(ParameterError):
            ScenarioConfig(n=50, rho=0.0, sigma2=-1.0, seed=0)
        with pytest.raises(ParameterError):
            # noise covariance [[1, 1.2], [1.2, 1]] is indefinite
            ScenarioConfig(n=50, rho=1.2, sigma2=1.0, seed=0)


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
        assert np.allclose(data.x.widths, 2.0)
        assert np.allclose(data.x.widths, data.x_mean.widths)
        assert np.allclose(data.y.widths, data.y_mean.widths)
        # y widths inherit the mean level, so they vary over time
        assert data.y.widths.std() > 0.1

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

    def test_report_helpers(self, small_report):
        rep = small_report
        vals = rep.hr_values("A", 40, "ivssa", 1)
        assert vals.shape == (3,) and np.all(vals > 0)
        assert rep.mean_hr("A", 40, "ivssa", 1) == pytest.approx(vals.mean())
        best = rep.best_m("A", 40, "v-mivssa", series="y")
        means = [rep.mean_hr("A", 40, "v-mivssa", m, "y") for m in rep.m_list]
        assert means[best - 1] == min(means)
        hist = rep.selection_histogram("A", 40, "h-mivssa")
        assert sum(hist.values()) == 3
        assert len(rep.hr_summary()) == 9
        assert len(rep.selection_summary()) == 6

    def test_summary_consistent_with_rows(self, small_report):
        recs = [
            r
            for r in small_report.hr_summary()
            if r["method"] == "ivssa" and r["m"] == 3
        ]
        assert len(recs) == 1
        assert recs[0]["hr_x_mean"] == pytest.approx(
            small_report.mean_hr("A", 40, "ivssa", 3)
        )
        assert recs[0]["hr_x_failed"] == 0

    def test_validation(self):
        with pytest.raises(ParameterError):
            run_monte_carlo(scenarios="Q", reps=1)
        with pytest.raises(ParameterError):
            run_monte_carlo(reps=0)
        with pytest.raises(ParameterError):
            run_monte_carlo(methods=("ivssa", "other"), reps=1)
        with pytest.raises(ParameterError):
            run_monte_carlo(m_list=(0, 1), reps=1)

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
        assert rep.hr_values("A", 40, "ivssa", 2, "y").size == 1

    def test_max_m_below_one_rejected(self):
        # checked before any replication runs, not recorded as failed rows
        for bad in (0, -3):
            with pytest.raises(ParameterError, match=f"got {bad}"):
                run_monte_carlo(reps=1, max_m=bad)


MC_SCRIPT = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir, "scripts", "run_mc_study.py"
)


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
        proc = run_mc_script(
            "--reps", "2", "--n-list", "40", "--scenario", "A", "--out", "mc", cwd=tmp_path
        )
        assert proc.returncode == 0, proc.stderr
        with open(tmp_path / "mc.json") as fh:
            doc = json.load(fh)
        assert doc["command"] == "mc"
        assert len(doc["hr_rows"]) == 2 * 3 * 8  # reps x methods x m values
        assert len(doc["selection_rows"]) == 2 * 3 * 2  # reps x methods x series
        header = (tmp_path / "mc.hr_summary.csv").read_text().splitlines()[0]
        assert header.startswith("scenario,n,method,m,hr_x_mean")
        assert "scenario A, n = 40" in proc.stdout

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

    def test_mode_tie_prefers_smaller(self):
        rep = self.build([1, 2, 2, 1], {1: 0.5, 2: 0.5})
        assert rep.selection_mode("A", 10, "ivssa") == 1
        assert rep.best_m("A", 10, "ivssa") == 1

    def test_failed_selections_excluded(self):
        rep = self.build([3, None, 3], {3: 0.1})
        assert rep.selection_histogram("A", 10, "ivssa") == {3: 2}

    def test_empty_cell_raises(self):
        rep = self.build([None], {1: None})
        with pytest.raises(ParameterError):
            rep.best_m("A", 10, "ivssa")
        with pytest.raises(ParameterError):
            rep.selection_mode("A", 10, "ivssa")
