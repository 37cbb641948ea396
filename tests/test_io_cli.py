import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from ivssa import (
    CsvError,
    IntervalSeries,
    InvalidValueError,
    ParameterError,
    ScenarioConfig,
    ShapeError,
    json_dumps,
    read_csv,
    select_components,
    select_params_oos,
    simulate_scenario,
    write_series_csv,
    write_table_csv,
)
from ivssa.io import atomic_write_text
from helpers import child_env, structured_series


def write_text(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


NARROW = "label,lo,hi\n2024-01,1.0,2.0\n2024-02,1.5,2.5\n2024-03,0.5,3.5\n2024-04,2.0,2.0\n"
WIDE = (
    "label,lo_1,hi_1,lo_2,hi_2\n"
    "t1,1,2,10,20\n"
    "t2,3,4,30,40\n"
    "t3,5,6,50,60\n"
    "t4,7,8,70,80\n"
)


class TestReadCsv:
    def test_narrow(self, tmp_path):
        path = tmp_path / "a.csv"
        write_text(path, NARROW)
        series = read_csv(str(path))
        assert len(series) == 1
        y = series[0]
        assert np.allclose(y.lo, [1.0, 1.5, 0.5, 2.0])
        assert np.allclose(y.hi, [2.0, 2.5, 3.5, 2.0])
        assert y.labels == ("2024-01", "2024-02", "2024-03", "2024-04")

    def test_wide(self, tmp_path):
        path = tmp_path / "b.csv"
        write_text(path, WIDE)
        series = read_csv(str(path))
        assert len(series) == 2
        assert np.allclose(series[0].lo, [1, 3, 5, 7])
        assert np.allclose(series[1].hi, [20, 40, 60, 80])
        assert series[0].labels == series[1].labels == ("t1", "t2", "t3", "t4")

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "c.csv"
        write_text(path, "label,lo,hi\n\nr1,1,2\n\n\nr2,3,4\n")
        y = read_csv(str(path))[0]
        assert len(y) == 2

    def test_missing_file(self, tmp_path):
        with pytest.raises(CsvError) as err:
            read_csv(str(tmp_path / "nope.csv"))
        assert err.value.line == 0

    def test_empty_file(self, tmp_path):
        path = tmp_path / "d.csv"
        write_text(path, "")
        with pytest.raises(CsvError, match="no header"):
            read_csv(str(path))

    def test_header_only(self, tmp_path):
        path = tmp_path / "e.csv"
        write_text(path, "label,lo,hi\n")
        with pytest.raises(CsvError, match="no data"):
            read_csv(str(path))

    def test_bad_header(self, tmp_path):
        path = tmp_path / "f.csv"
        write_text(path, "time,low,high\n1,1,2\n")
        with pytest.raises(CsvError) as err:
            read_csv(str(path))
        assert err.value.line == 1

    def test_field_count_names_line(self, tmp_path):
        path = tmp_path / "g.csv"
        write_text(path, "label,lo,hi\nr1,1,2\nr2,3\n")
        with pytest.raises(CsvError) as err:
            read_csv(str(path))
        assert err.value.line == 3
        assert "line 3" in str(err.value)

    def test_non_numeric_names_line(self, tmp_path):
        path = tmp_path / "h.csv"
        write_text(path, "label,lo,hi\nr1,1,2\nr2,x,4\n")
        with pytest.raises(CsvError) as err:
            read_csv(str(path))
        assert err.value.line == 3 and "'x'" in str(err.value)

    def test_reversed_endpoints(self, tmp_path):
        path = tmp_path / "i.csv"
        write_text(path, "label,lo,hi\nr1,1,2\nr2,5,4\n")
        with pytest.raises(InvalidValueError, match="line 3"):
            read_csv(str(path))

    def test_non_finite(self, tmp_path):
        path = tmp_path / "j.csv"
        write_text(path, "label,lo,hi\nr1,1,inf\n")
        with pytest.raises(InvalidValueError, match="line 2"):
            read_csv(str(path))


class TestWriteCsv:
    def test_series_round_trip(self, tmp_path):
        y = structured_series(50, seed=5, noise=0.4)
        path = str(tmp_path / "rt.csv")
        write_series_csv(path, y)
        back = read_csv(path)[0]
        assert np.allclose(back.lo, y.lo, rtol=1e-9)
        assert np.allclose(back.hi, y.hi, rtol=1e-9)
        assert back.labels == tuple(str(t + 1) for t in range(50))

    def test_wide_round_trip(self, tmp_path):
        a = structured_series(20, seed=6)
        b = structured_series(20, seed=7)
        path = str(tmp_path / "rt2.csv")
        write_series_csv(path, [a, b], labels=[f"w{t}" for t in range(20)])
        back = read_csv(path)
        assert len(back) == 2
        assert np.allclose(back[1].lo, b.lo, rtol=1e-9)
        assert back[0].labels[0] == "w0"

    def test_validation(self, tmp_path):
        a = structured_series(10, seed=8)
        with pytest.raises(ParameterError):
            write_series_csv(str(tmp_path / "x.csv"), [])
        with pytest.raises(ShapeError):
            write_series_csv(
                str(tmp_path / "x.csv"), [a, structured_series(12, seed=9)]
            )
        with pytest.raises(ShapeError):
            write_series_csv(str(tmp_path / "x.csv"), a, labels=["only-one"])

    def test_table_cell_formats(self, tmp_path):
        path = str(tmp_path / "t.csv")
        write_table_csv(
            path,
            ["a", "b", "c", "d"],
            [[None, True, 1.5, math.inf], ["x", False, 3, -0.25]],
        )
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        assert text == "a,b,c,d\n,true,1.5,\nx,false,3,-0.25\n"


class TestJson:
    def test_float_round_trip(self):
        values = [0.1, 1 / 3, 1e-300, 2**53 + 1.0, -math.pi]
        text = json_dumps({"v": values})
        assert json.loads(text)["v"] == values

    def test_integral_floats_stay_floats(self):
        for value in (0.0, -0.0, 3.0, 1e20, np.float64(-2.0)):
            text = json_dumps(value)
            back = json.loads(text)
            assert type(back) is float and back == value, text
        assert json_dumps(-0.0) == "-0.0"
        assert json.loads(json_dumps({"n": 3, "x": 3.0})) == {"n": 3, "x": 3.0}
        assert isinstance(json.loads(json_dumps({"x": 3.0}))["x"], float)

    def test_non_finite_to_null(self):
        text = json_dumps([math.nan, math.inf, -math.inf])
        assert json.loads(text) == [None, None, None]

    def test_insertion_order_and_determinism(self):
        doc = {"z": 1, "a": [1, {"k": 2.5}], "m": {"x": True, "w": None}}
        one = json_dumps(doc)
        assert one == json_dumps(doc)
        assert one.index('"z"') < one.index('"a"') < one.index('"m"')

    def test_numpy_values(self):
        doc = {
            "arr": np.array([1.5, 2.5]),
            "i": np.int64(7),
            "f": np.float64(0.5),
            "b": np.bool_(True),
        }
        got = json.loads(json_dumps(doc))
        assert got == {"arr": [1.5, 2.5], "i": 7, "f": 0.5, "b": True}

    def test_empty_containers(self):
        assert json_dumps({"a": {}, "b": []}) == '{\n  "a": {},\n  "b": []\n}'

    def test_unserializable(self):
        with pytest.raises(ParameterError):
            json_dumps({"x": object()})

    def test_atomic_write_leaves_no_temp(self, tmp_path):
        path = tmp_path / "out.txt"
        atomic_write_text(str(path), "hello")
        assert path.read_text() == "hello"
        assert os.listdir(tmp_path) == ["out.txt"]


def run_cli(*args, cwd=None, as_bytes=False):
    return subprocess.run(
        [sys.executable, "-m", "ivssa", *args],
        capture_output=True,
        text=not as_bytes,
        cwd=cwd,
        env=child_env(),
    )


@pytest.fixture(scope="module")
def sample_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "sample.csv"
    y = structured_series(60, seed=12, noise=0.3)
    write_series_csv(str(path), y)
    return str(path)


@pytest.fixture(scope="module")
def wide_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "wide.csv"
    data = simulate_scenario(ScenarioConfig.scenario_a(40, seed=3))
    write_series_csv(str(path), [data.x, data.y])
    return str(path)


class TestCliBasics:
    def test_version(self):
        res = run_cli("--version")
        assert res.returncode == 0
        assert res.stdout.strip() == "ivssa 0.1.0"

    def test_no_command_is_config_error(self):
        res = run_cli()
        assert res.returncode == 5

    def test_unknown_flag(self, sample_csv):
        res = run_cli("select", "--input", sample_csv, "--bogus")
        assert res.returncode == 5

    def test_missing_input_file(self, tmp_path):
        res = run_cli("select", "--input", str(tmp_path / "none.csv"))
        assert res.returncode == 2
        assert "parse error" in res.stderr

    def test_malformed_csv(self, tmp_path):
        path = tmp_path / "bad.csv"
        write_text(path, "label,lo,hi\nr1,1,2\nr2,oops,4\nr3,1,2\nr4,1,2\n")
        res = run_cli("select", "--input", str(path))
        assert res.returncode == 2
        assert "line 3" in res.stderr

    def test_invalid_interval(self, tmp_path):
        path = tmp_path / "rev.csv"
        write_text(path, "label,lo,hi\nr1,1,2\nr2,9,4\nr3,1,2\nr4,1,2\n")
        res = run_cli("select", "--input", str(path))
        assert res.returncode == 3
        assert "invalid input" in res.stderr

    def test_too_few_rows(self, tmp_path):
        path = tmp_path / "tiny.csv"
        write_text(path, "label,lo,hi\nr1,1,2\nr2,1,2\nr3,1,2\n")
        res = run_cli("select", "--input", str(path))
        assert res.returncode == 3

    def test_vertical_recurrence_is_numerical_failure(self, tmp_path):
        path = tmp_path / "spike.csv"
        rows = "".join(f"r{t},0,0\n" for t in range(1, 5)) + "r5,1,1\n"
        write_text(path, "label,lo,hi\n" + rows)
        res = run_cli(
            "forecast", "--input", str(path), "--window", "2",
            "--grouping", "fixed:1", "--horizon", "2",
        )
        assert res.returncode == 4
        assert "numerical failure" in res.stderr

    def test_bad_grouping_value(self, sample_csv):
        res = run_cli("decompose", "--input", sample_csv, "--grouping", "best")
        assert res.returncode == 5

    def test_overflowing_covariance_is_invalid_input(self, tmp_path):
        path = tmp_path / "huge.csv"
        y = structured_series(60, seed=12, noise=0.3)
        write_series_csv(str(path), IntervalSeries(y.lo * 1e160, y.hi * 1e160))
        res = run_cli("decompose", "--input", str(path))
        assert res.returncode == 3
        assert "invalid input" in res.stderr and "non-finite" in res.stderr
        assert "RuntimeWarning" not in res.stderr

    def test_underflowing_covariance_is_invalid_input(self, tmp_path):
        path = tmp_path / "tiny.csv"
        y = structured_series(60, seed=12, noise=0.3)
        write_series_csv(str(path), IntervalSeries(y.lo * 1e-200, y.hi * 1e-200))
        res = run_cli("select", "--input", str(path))
        assert res.returncode == 3
        assert "invalid input" in res.stderr and "underflows" in res.stderr

    @pytest.mark.parametrize("bad", ["0", "-3"])
    def test_max_m_below_one(self, sample_csv, bad):
        res = run_cli("select", "--input", sample_csv, "--max-m", bad)
        assert res.returncode == 5
        assert f"max_m must be >= 1, got {bad}" in res.stderr
        res = run_cli(
            "mc", "--scenario", "A", "--n-list", "30", "--m-list", "1",
            "--methods", "ivssa", "--reps", "1", "--max-m", bad,
        )
        assert res.returncode == 5
        assert f"max_m must be >= 1, got {bad}" in res.stderr


class TestCliDecompose:
    def test_stdout_json_schema(self, sample_csv):
        res = run_cli("decompose", "--input", sample_csv)
        assert res.returncode == 0, res.stderr
        doc = json.loads(res.stdout)
        assert doc["command"] == "decompose"
        assert doc["input"]["n"] == 60 and doc["input"]["n_series"] == 1
        assert doc["params"]["window"] == 31
        assert doc["d"] >= 1
        rec = doc["series"][0]
        assert rec["m"] == rec["selection"]["m"]
        assert len(rec["components"]) == rec["m"]
        assert len(rec["trendline"]["lo"]) == 60

    def test_raw_channels_add_up(self, sample_csv):
        doc = json.loads(run_cli("decompose", "--input", sample_csv).stdout)
        rec = doc["series"][0]
        total_a = np.zeros(60)
        total_b = np.zeros(60)
        for comp in rec["components"]:
            total_a = total_a + np.array(comp["raw_a"])
            total_b = total_b + np.array(comp["raw_b"])
        # identical accumulation order, so equality is exact, not approximate
        assert list(total_a) == rec["trendline"]["raw_a"]
        assert list(total_b) == rec["trendline"]["raw_b"]
        y = read_csv(sample_csv)[0]
        back_lo = np.array(rec["trendline"]["raw_a"]) + np.array(
            rec["residuals"]["raw_a"]
        )
        back_hi = np.array(rec["trendline"]["raw_b"]) + np.array(
            rec["residuals"]["raw_b"]
        )
        assert np.allclose(back_lo, y.lo, rtol=1e-12)
        assert np.allclose(back_hi, y.hi, rtol=1e-12)

    def test_csv_tables_per_series(self, wide_csv, tmp_path):
        out = str(tmp_path / "dec.json")
        res = run_cli(
            "decompose", "--input", wide_csv, "--format", "csv", "--out", out,
            "--grouping", "fixed:3",
        )
        assert res.returncode == 0, res.stderr
        doc = json.loads(open(out).read())
        assert doc["params"]["mode"] == "vertical"
        assert [r["m"] for r in doc["series"]] == [3, 3]
        for idx in (1, 2):
            with open(str(tmp_path / f"dec.series{idx}.csv")) as fh:
                header = fh.readline().strip()
            assert header == "label,lo,hi,trend_lo,trend_hi,resid_lo,resid_hi"

    def test_fixed_grouping_beyond_rank(self, sample_csv):
        res = run_cli(
            "decompose", "--input", sample_csv, "--grouping", "fixed:999"
        )
        assert res.returncode == 5

    def test_format_csv_without_out(self, sample_csv):
        res = run_cli("decompose", "--input", sample_csv, "--format", "csv")
        assert res.returncode == 5


class TestCliSelect:
    def test_matches_library(self, sample_csv):
        doc = json.loads(run_cli("select", "--input", sample_csv).stdout)
        y = read_csv(sample_csv)[0]
        sel = select_components(y)
        rec = doc["series"][0]
        assert rec["m"] == sel.m
        assert rec["converged"] == sel.converged
        assert rec["critical_value"] == pytest.approx(sel.critical_value)
        assert np.allclose(
            np.array(rec["ks_trace"], dtype=float),
            sel.ks_trace,
            equal_nan=True,
        )

    def test_multivariate_per_series(self, wide_csv):
        doc = json.loads(run_cli("select", "--input", wide_csv).stdout)
        assert [r["index"] for r in doc["series"]] == [1, 2]


class TestCliForecast:
    def test_csv_always_written(self, sample_csv, tmp_path):
        out = str(tmp_path / "fc.json")
        res = run_cli(
            "forecast", "--input", sample_csv, "--horizon", "6",
            "--grouping", "fixed:2", "--out", out,
        )
        assert res.returncode == 0, res.stderr
        with open(str(tmp_path / "fc.forecast.csv")) as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "t,lo,hi"
        assert len(lines) == 7
        assert lines[1].split(",")[0] == "61"
        doc = json.loads(open(out).read())
        assert doc["params"]["m"] == 2
        assert len(doc["forecast"]["lo"]) == 6
        assert all(
            a <= b for a, b in zip(doc["forecast"]["lo"], doc["forecast"]["hi"])
        )

    def test_multivariate_rejected(self, wide_csv):
        res = run_cli("forecast", "--input", wide_csv)
        assert res.returncode == 5


class TestCliSelectParams:
    def test_matches_library(self, sample_csv, tmp_path):
        out = str(tmp_path / "sp.json")
        res = run_cli(
            "select-params", "--input", sample_csv, "--l-grid", "10,15",
            "--m-grid", "1,2", "--horizon", "6", "--stride", "5",
            "--format", "csv", "--out", out,
        )
        assert res.returncode == 0, res.stderr
        doc = json.loads(open(out).read())
        y = read_csv(sample_csv)[0]
        oos = select_params_oos(y, l_grid=(10, 15), m_grid=(1, 2), p=6, stride=5)
        assert doc["oos"]["window"] == oos.window
        assert doc["oos"]["m"] == oos.m
        got = {
            (c["window"], c["m"]): c["objective"] for c in doc["oos"]["cells"]
        }
        for cell, val in oos.objective.items():
            if math.isinf(val):
                assert got[cell] is None
            else:
                assert got[cell] == pytest.approx(val, rel=1e-12)
        with open(str(tmp_path / "sp.objective.csv")) as fh:
            assert fh.readline().strip() == "window,m,objective,failed"


class TestCliSimulate:
    def test_csv_round_trip(self, tmp_path):
        out = str(tmp_path / "sim.json")
        res = run_cli(
            "simulate", "--scenario", "B", "--n", "30", "--seed", "11",
            "--format", "csv", "--out", out,
        )
        assert res.returncode == 0, res.stderr
        back = read_csv(str(tmp_path / "sim.series.csv"))
        data = simulate_scenario(ScenarioConfig.scenario_b(30, seed=11))
        assert len(back) == 2
        assert np.allclose(back[0].lo, data.x.lo, rtol=1e-9)
        assert np.allclose(back[1].hi, data.y.hi, rtol=1e-9)

    def test_stdout_deterministic(self):
        one = run_cli("simulate", "--scenario", "A", "--n", "12", "--seed", "4",
                      as_bytes=True)
        two = run_cli("simulate", "--scenario", "A", "--n", "12", "--seed", "4",
                      as_bytes=True)
        assert one.returncode == 0
        assert one.stdout == two.stdout


class TestCliMc:
    def test_tables_written(self, tmp_path):
        out = str(tmp_path / "mc.json")
        res = run_cli(
            "mc", "--scenario", "A", "--n-list", "30", "--m-list", "1,2",
            "--methods", "ivssa", "--reps", "2", "--seed", "5", "--out", out,
        )
        assert res.returncode == 0, res.stderr
        doc = json.loads(open(out).read())
        assert doc["config"]["reps"] == 2
        assert len(doc["hr_rows"]) == 4
        for suffix in ("hr_rows", "selection_rows", "hr_summary", "selection_summary"):
            assert os.path.exists(str(tmp_path / f"mc.{suffix}.csv"))
