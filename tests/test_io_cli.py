import csv
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import ivssa.cli as cli
from ivssa import (
    CsvError,
    IntervalSeries,
    InvalidValueError,
    OutputError,
    ParameterError,
    ScenarioConfig,
    ShapeError,
    decompose,
    eigen_sym,
    json_dumps,
    read_csv,
    select_params_oos,
    simulate_scenario,
    write_series_csv,
    write_table_csv,
)
from ivssa.decomposition import _symmetric_product
from ivssa.io import _JSON_BATCH, _Doc, atomic_write_text
from helpers import child_env, decompose_and_select, long_shaped, structured_series
from oracles import json_dumps_loop


HERE = os.path.dirname(os.path.abspath(__file__))
WEEKLY = os.path.join(HERE, "fixtures", "sample_weekly.csv")
ONE_SHOT = os.path.join(HERE, os.pardir, "scripts", "one_shot.py")


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

    def test_byte_order_mark(self, tmp_path):
        # spreadsheet exports start the file with the UTF-8 byte-order mark
        plain = tmp_path / "plain.csv"
        marked = tmp_path / "bom.csv"
        write_text(plain, WIDE)
        marked.write_bytes(b"\xef\xbb\xbf" + WIDE.encode("utf-8"))
        for got, want in zip(read_csv(str(marked)), read_csv(str(plain)), strict=True):
            assert got == want and got.labels == want.labels

    def test_non_utf8_names_line_and_byte(self, tmp_path):
        path = tmp_path / "k.csv"
        path.write_bytes("label,lo,hi\nr1,1,2\ncafé,3,4\n".encode("latin-1"))
        with pytest.raises(CsvError) as err:
            read_csv(str(path))
        assert err.value.line == 3
        assert str(err.value) == "line 3: not UTF-8: byte 0xe9"


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

    def test_numpy_bool_cells_match_python_bools(self, tmp_path):
        # a numpy bool column writes as the JSON emitter writes it
        path = str(tmp_path / "t.csv")
        flags = np.array([True, False])
        write_table_csv(path, ["m", "converged"], zip([3, 40], flags))
        with open(path, encoding="utf-8") as fh:
            assert fh.read() == "m,converged\n3,true\n40,false\n"
        assert json.loads(json_dumps(list(flags))) == [True, False]


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

    def test_atomic_write_error_names_path_and_cause(self, tmp_path):
        target = tmp_path / "taken"
        target.mkdir()
        with pytest.raises(OutputError, match="Is a directory") as info:
            atomic_write_text(str(target), "hello")
        assert f"cannot write {target}:" in str(info.value)
        assert os.listdir(tmp_path) == ["taken"]

    def test_atomic_write_refuses_a_fifo(self, tmp_path):
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        with pytest.raises(OutputError, match=rf"^cannot write {fifo}: not a regular file$"):
            atomic_write_text(str(fifo), "hello")
        assert not fifo.is_file() and fifo.exists()
        assert os.listdir(tmp_path) == ["fifo"]

    def test_float_run_patches(self):
        run = [0.0, -0.0, 3.0, math.nan, math.inf, -math.inf, 1e16, 1e17, 2.5e-7]
        want = (
            "[\n  0.0,\n  -0.0,\n  3.0,\n  null,\n  null,\n  null,\n"
            "  10000000000000000.0,\n  1e+17,\n  2.4999999999999999e-07\n]"
        )
        assert json_dumps(run) == want
        assert json_dumps(np.array(run)) == want
        assert json_dumps(tuple(run)) == want


# floats whose text the emitter patches or that sit at a formatting edge
EDGE_FLOATS = [
    0.0, -0.0, 3.0, -3.0, 5e-324, -5e-324, sys.float_info.max,
    -sys.float_info.max, math.nan, math.inf, -math.inf, 1e15, 1e16, 1e17,
    1e17 - 16.0, 2.0**53, 2.0**53 + 2.0, 0.5, 1e-5, 1e-4,
]
EDGE_FLOAT32 = [
    0.0, -0.0, 3.0, math.nan, math.inf, -math.inf,
    float(np.float32(1e16)), float(np.float32(1e17)),
    float(np.finfo(np.float32).max), float(np.float32(1e-45)),
]
json_floats = st.one_of(
    st.sampled_from(EDGE_FLOATS),
    st.integers(10**15, 10**17).map(float),
    st.floats(),
)
json_arrays = st.one_of(
    hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=6),
        elements=json_floats,
    ),
    hnp.arrays(
        np.float32,
        hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=6),
        elements=st.one_of(st.sampled_from(EDGE_FLOAT32), st.floats(width=32)),
    ),
    hnp.arrays(
        np.int64,
        hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=6),
    ),
    hnp.arrays(
        np.bool_,
        hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=6),
    ),
)
# NaNs whose payloads differ, which the shared texts of a dict keep apart
NAN_PAYLOADS = np.array(
    [0x7FF8000000000001, 0x7FF80000DEADBEEF, 0xFFF8000000000000], dtype=np.uint64
).view(np.float64).tolist()
NAN32_PAYLOADS = np.array([0x7FC00001, 0xFFC00000], dtype=np.uint32).view(np.float32).tolist()


@st.composite
def phi_dicts(draw):
    """A component record as the CLI writes it: raw endpoint channels and
    their phi-ordered interval, whose values are bitwise copies of theirs."""
    if draw(st.booleans()):
        dtype, values = np.float64, st.one_of(
            st.sampled_from(EDGE_FLOATS + NAN_PAYLOADS), st.integers(-3, 3).map(float), st.floats()
        )
    else:
        dtype, values = np.float32, st.one_of(
            st.sampled_from(EDGE_FLOAT32 + NAN32_PAYLOADS), st.floats(width=32)
        )
    n = draw(st.integers(1, 6))
    a, b = (np.array(draw(st.lists(values, min_size=n, max_size=n)), dtype=dtype) for _ in "ab")
    with np.errstate(invalid="ignore"):
        lo, hi = np.minimum(a, b), np.maximum(a, b)
    return {"index": n, "lo": lo, "hi": hi, "raw_a": a, "raw_b": b}


json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(max_size=3), json_floats,
    json_floats.map(np.float64), st.sampled_from(EDGE_FLOAT32).map(np.float32),
)


@st.composite
def json_records(draw):
    """Rows as an mc document holds them: dicts of scalars sharing their
    keys in order; a later row may hold a list or change its key order."""
    keys = draw(st.lists(st.text(max_size=3), min_size=1, max_size=4, unique=True))
    later = st.one_of(json_scalars, st.lists(json_floats, max_size=2))
    rows = [dict(zip(keys, draw(st.lists(json_scalars, min_size=len(keys), max_size=len(keys)))))]
    for _ in range(draw(st.integers(0, 4))):
        row = dict(zip(keys, draw(st.lists(later, min_size=len(keys), max_size=len(keys)))))
        rows.append(dict(reversed(row.items())) if draw(st.integers(0, 9)) == 0 else row)
    return rows


json_leaves = st.one_of(
    phi_dicts(),
    json_records(),
    st.none(),
    st.booleans(),
    st.integers(),
    st.text(max_size=4),
    json_floats,
    json_floats.map(np.float64),
    json_arrays,
    st.lists(json_floats, max_size=8),
    st.lists(json_floats.map(np.float64), max_size=8),
    st.lists(st.one_of(json_floats, st.integers()), max_size=8),
)
json_docs = st.recursive(
    json_leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=4), children, max_size=4),
    ),
    max_leaves=24,
)


@settings(max_examples=300)
@given(json_docs)
def test_json_bytes_match_per_value_emitter(doc):
    assert json_dumps(doc) == json_dumps_loop(doc)


@pytest.mark.parametrize(
    "argv",
    [
        ["decompose", "--input", WEEKLY],
        ["mc", "--scenario", "A", "--n-list", "20", "--m-list", "1,2", "--reps", "2"],
        ["forecast", "--input", WEEKLY],
        ["select", "--input", WEEKLY],
        # m = 12 exceeds l = 10 and d, so those cells fail with a null objective
        ["select-params", "--input", WEEKLY, "--l-grid", "10,20", "--m-grid", "1,12",
         "--horizon", "4", "--stride", "20"],
        ["simulate", "--scenario", "B", "--n", "30", "--seed", "11"],
    ],
)
def test_cli_documents_match_per_value_emitter(argv, tmp_path, monkeypatch):
    docs = []
    monkeypatch.setattr(cli, "write_json", lambda path, doc: docs.append(doc))
    assert cli.main([*argv, "--out", str(tmp_path / "out.json")]) == 0
    assert json_dumps(docs[0]) == json_dumps_loop(docs[0])
    if argv[0] == "select-params":
        assert {c["failed"] for c in docs[0]["oos"]["cells"]} == {False, True}
        assert any(c["objective"] is None for c in docs[0]["oos"]["cells"])


def test_json_batches_keep_shared_texts(monkeypatch):
    """Floats are formatted a batch at a time.  Values that recur on both
    sides of a flush (signed zeros, NaN payloads, float32 copies) keep their
    texts in arrays, rows, float lists, scalars and record fields."""
    shared = [0.0, -0.0, 0.1, 3.0, 1e17, -math.inf, *NAN_PAYLOADS, *NAN32_PAYLOADS]
    shared.append(float(np.float32(0.1)))
    block = {
        "array": np.array(shared),
        "float32": np.array([0.1, -0.0, math.nan, 2.5], dtype=np.float32),
        "rows": np.array([shared, shared[::-1]]),
        "list": list(shared),
        "scalars": [np.float32(0.1), np.float64(-0.0), *shared, 7, None],
        "records": [{"x": v, "n": i, "ok": i % 2 == 0} for i, v in enumerate(shared)],
    }
    filler = np.arange(_JSON_BATCH) / 7.0
    doc = [block, {"filler": filler}, block, [block, filler.tolist()], block]
    pending = []
    flush = _Doc.flush
    monkeypatch.setattr(_Doc, "flush", lambda self: pending.append(self.pending) or flush(self))
    assert json_dumps(doc) == json_dumps_loop(doc)
    assert len(pending) == 3 and min(pending[:2]) >= _JSON_BATCH


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
    def test_parser_reuse_matches_fresh_calls(self, tmp_path, capsys):
        """``main`` builds its parser once; every later call in the process
        gives the exit code, output bytes and messages of a fresh one."""
        calls = [
            ["select", "--input", WEEKLY, "--max-m", "5"],
            ["select", "--input", WEEKLY],
            ["decompose", "--input", WEEKLY, "--grouping", "fixed:3"],
            ["decompose", "--input", WEEKLY, "--grouping", "fixed:x"],
            ["decompose", "--input", WEEKLY],
        ]
        for k, argv in enumerate(calls):
            out = [str(tmp_path / f"{side}{k}.json") for side in ("main", "fresh")]
            code = cli.main([*argv, "--out", out[0]])
            err = capsys.readouterr().err
            res = run_cli(*argv, "--out", out[1])
            assert (code, err) == (res.returncode, res.stderr)
            assert code == (5 if k == 3 else 0)
            if code == 0:
                with open(out[0], "rb") as a, open(out[1], "rb") as b:
                    assert a.read() == b.read()
        assert json.loads(open(tmp_path / "main0.json").read())["params"]["max_m"] == 5
        assert json.loads(open(tmp_path / "main1.json").read())["params"]["max_m"] is None

    @pytest.mark.parametrize(
        "argv, code, message",
        [
            (["decompose", "--window", "abc"], 5, "--window expects an integer or 'auto', got 'abc'"),
            (["decompose", "--grouping", "fixed:0"], 5, "--grouping fixed:M must be >= 1, got 0"),
            (["decompose", "--grouping", "bogus"], 5,
             "--grouping expects periodogram, fixed:M or oos, got 'bogus'"),
            (["decompose", "--grouping", "fixed:500"], 5, "component must lie in [1, {d}], got 500"),
            (["forecast", "--grouping", "fixed:500"], 5, "component must lie in [1, {d}], got 500"),
            (["select-params", "--l-grid", "10,x"], 5,
             "--l-grid expects comma-separated integers, got '10,x'"),
            (["select-params", "--m-grid", ","], 5, "--m-grid is empty"),
            (["select", "--input", "{short}"], 3, "input has 3 rows; need at least 4"),
            (["decompose", "--input", "{wide}", "--grouping", "oos"], 5,
             "out-of-sample grouping needs a univariate input"),
            (["forecast", "--input", "{wide}"], 5, "forecast needs a univariate input"),
            (["select-params", "--input", "{wide}"], 5, "select-params needs a univariate input"),
            # the largest index is checked first, so both commands name it
            (["decompose", "--input", WEEKLY, "--grouping", "fixed:500"], 5,
             "component must lie in [1, 125], got 500"),
            (["forecast", "--input", WEEKLY, "--grouping", "fixed:500"], 5,
             "component must lie in [1, 125], got 500"),
        ],
    )
    def test_usage_errors(self, argv, code, message, sample_csv, wide_csv, tmp_path, capsys):
        short = tmp_path / "short.csv"
        write_text(short, "label,lo,hi\nr1,1,2\nr2,1,2\nr3,1,2\n")
        d = decompose(read_csv(sample_csv)[0]).d
        if "--input" not in argv:
            argv = [argv[0], "--input", sample_csv, *argv[1:]]
        argv = [a.format(short=short, wide=wide_csv) for a in argv]
        assert cli.main([*argv, "--out", str(tmp_path / "out.json")]) == code
        kind = "invalid input" if code == 3 else "configuration error"
        want = message.format(d=d, d1=d + 1)
        assert capsys.readouterr().err == f"ivssa: {kind}: {want}\n"
        assert not os.path.exists(tmp_path / "out.json")

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

    def test_non_utf8_input(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(NARROW.replace("2024-01", "janvier é").encode("latin-1"))
        res = run_cli("select", "--input", str(path))
        assert res.returncode == 2
        assert res.stderr == "ivssa: parse error: line 2: not UTF-8: byte 0xe9\n"

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

    @pytest.mark.parametrize("cmd", ["decompose", "select", "forecast"])
    def test_endpoints_near_float_max_are_invalid_input(self, cmd, tmp_path, capsys):
        # the channels halve each endpoint before adding, so they stay finite
        # and the covariance's own check names the cause, with no numpy
        # overflow on the way (the suite raises on one)
        path = tmp_path / "edge.csv"
        rows = [f"r{t},{t},{t + 1}" for t in range(9)] + ["r9,-1e308,-1e308"]
        write_text(path, "\n".join(["label,lo,hi", *rows]) + "\n")
        out = tmp_path / "out.json"
        assert cli.main([cmd, "--input", str(path), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("ivssa: invalid input: ") and err.count("\n") == 1
        assert "non-finite" in err and not out.exists()

    def test_underflowing_covariance_is_invalid_input(self, tmp_path):
        path = tmp_path / "tiny.csv"
        y = structured_series(60, seed=12, noise=0.3)
        write_series_csv(str(path), IntervalSeries(y.lo * 1e-200, y.hi * 1e-200))
        res = run_cli("select", "--input", str(path))
        assert res.returncode == 3
        assert "invalid input" in res.stderr and "underflows" in res.stderr

    @pytest.mark.parametrize(
        "scale, message",
        [(1e160, "non-finite entries"), (1e-200, "underflows")],
        ids=["overflow", "underflow"],
    )
    def test_select_params_names_numeric_failure(self, tmp_path, scale, message):
        path = tmp_path / "scaled.csv"
        y = structured_series(60, seed=12, noise=0.3)
        write_series_csv(str(path), IntervalSeries(y.lo * scale, y.hi * scale))
        res = run_cli("select-params", "--input", str(path))
        assert res.returncode == 3
        assert "invalid input" in res.stderr and message in res.stderr
        assert "RuntimeWarning" not in res.stderr

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

    @pytest.mark.parametrize("bad", ["nan", "1", "-1"])
    def test_rank_eps_outside_unit_interval(self, sample_csv, bad):
        res = run_cli("select", "--input", sample_csv, "--rank-eps", bad)
        assert res.returncode == 5
        assert "configuration error" in res.stderr and "rank_eps" in res.stderr


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


class TestCliLargeFit:
    def test_document_is_one_complete_solve(self, tmp_path):
        # a 1000-row file fits at l = 501, a large fit: the document's d and
        # eigenvalues are those of one eigen_sym of the fit's S, and a fresh
        # process writes the same bytes
        path = str(tmp_path / "long.csv")
        write_series_csv(path, long_shaped(1000, seed=11))
        runs = [run_cli("decompose", "--input", path, as_bytes=True) for _ in range(2)]
        for res in runs:
            assert res.returncode == 0, res.stderr
        assert runs[0].stdout == runs[1].stdout
        doc = json.loads(runs[0].stdout)
        dec = decompose(read_csv(path)[0])
        assert doc["params"]["window"] == dec.window == 501 and dec.eig._z is not None
        want = eigen_sym(_symmetric_product(dec._z))
        assert doc["d"] == want.d
        assert doc["eigenvalues"] == want.values.tolist()


class TestCliSelect:
    def test_matches_library(self, sample_csv):
        doc = json.loads(run_cli("select", "--input", sample_csv).stdout)
        y = read_csv(sample_csv)[0]
        sel = decompose_and_select(y)
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


class TestCliOosGrouping:
    @pytest.fixture(scope="class")
    def weekly_pick(self):
        oos = select_params_oos(read_csv(WEEKLY)[0], rank_eps=0.05)
        return oos.window, oos.m

    @pytest.mark.parametrize("cmd", ["decompose", "forecast"])
    def test_search_uses_rank_eps(self, cmd, weekly_pick):
        # a coarse rank cutoff leaves d = 1: a search run at the default
        # cutoff would pick an m the fit at 0.05 does not have
        res = run_cli(
            cmd, "--input", WEEKLY, "--grouping", "oos", "--rank-eps", "0.05"
        )
        assert res.returncode == 0, res.stderr
        doc = json.loads(res.stdout)
        assert (doc["oos"]["window"], doc["oos"]["m"]) == weekly_pick == (125, 1)
        assert doc["params"]["window"] == 125


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
        assert {
            (c["window"], c["m"]): c["failure"] for c in doc["oos"]["cells"]
        } == {cell: oos.failure_reasons.get(cell) for cell in oos.objective}
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


class TestCliOutputErrors:
    def test_missing_out_dir(self, sample_csv, tmp_path):
        out = tmp_path / "nodir" / "dec.json"
        res = run_cli("decompose", "--input", sample_csv, "--out", str(out))
        assert res.returncode == 6
        assert res.stderr.startswith(f"ivssa: output error: cannot write {out}:")
        assert "Traceback" not in res.stderr

    def test_missing_out_dir_stops_mc_before_any_replication(
        self, tmp_path, monkeypatch, capsys
    ):
        def fail(**kwargs):
            raise AssertionError("the study ran")

        monkeypatch.setattr(cli, "run_monte_carlo", fail)
        out = tmp_path / "nodir" / "mc.json"
        code = cli.main(["mc", "--reps", "1", "--n-list", "20", "--out", str(out)])
        assert code == 6
        err = capsys.readouterr().err
        assert f"cannot write {out}: no writable directory" in err

    def test_csv_without_out_fails_before_any_work(self, sample_csv, monkeypatch, capsys):
        def fail(path):
            raise AssertionError("the input was read")

        monkeypatch.setattr(cli, "_load_input", fail)
        code = cli.main(["select", "--input", sample_csv, "--format", "csv"])
        assert code == 5
        assert "configuration error: --format csv requires --out" in capsys.readouterr().err

    def test_csv_without_out_stops_mc_before_any_replication(self, monkeypatch, capsys):
        def fail(**kwargs):
            raise AssertionError("the study ran")

        monkeypatch.setattr(cli, "run_monte_carlo", fail)
        code = cli.main(["mc", "--reps", "1", "--n-list", "20", "--format", "csv"])
        assert code == 5
        assert "configuration error: --format csv requires --out" in capsys.readouterr().err

    def test_write_failure_names_path(self, sample_csv, tmp_path):
        # the output path is an existing directory
        res = run_cli("select", "--input", sample_csv, "--out", str(tmp_path))
        assert res.returncode == 6
        assert f"cannot write {tmp_path}: Is a directory" in res.stderr
        assert "Traceback" not in res.stderr

    @pytest.mark.parametrize("kind", ["fifo", "directory"])
    def test_special_out_fails_before_any_work(self, kind, tmp_path, monkeypatch, capsys):
        def fail(**kwargs):
            raise AssertionError("the study ran")

        monkeypatch.setattr(cli, "run_monte_carlo", fail)
        out = tmp_path / "target"
        if kind == "fifo":
            os.mkfifo(out)
        else:
            out.mkdir()
        code = cli.main(["mc", "--reps", "20", "--n-list", "20", "--out", str(out)])
        assert code == 6
        reason = "not a regular file" if kind == "fifo" else "Is a directory"
        assert f"output error: cannot write {out}: {reason}" in capsys.readouterr().err
        # the target is kept as it was, and no side table lands beside it
        assert os.listdir(tmp_path) == ["target"] and not out.is_file()

    @pytest.mark.parametrize("kind", ["fifo", "directory"])
    @pytest.mark.parametrize(
        "table", ["hr_rows", "selection_rows", "hr_summary", "selection_summary"]
    )
    def test_special_mc_side_table_stops_before_any_replication(
        self, kind, table, tmp_path, monkeypatch, capsys
    ):
        def fail(**kwargs):
            raise AssertionError("the study ran")

        monkeypatch.setattr(cli, "run_monte_carlo", fail)
        target = tmp_path / f"out.{table}.csv"
        if kind == "fifo":
            os.mkfifo(target)
        else:
            target.mkdir()
        out = tmp_path / "out.json"
        code = cli.main(["mc", "--reps", "40", "--n-list", "100", "--out", str(out)])
        assert code == 6
        reason = "not a regular file" if kind == "fifo" else "Is a directory"
        assert f"output error: cannot write {target}: {reason}" in capsys.readouterr().err
        assert os.listdir(tmp_path) == [target.name] and not target.is_file()

    @pytest.mark.parametrize("kind", ["fifo", "directory"])
    @pytest.mark.parametrize(
        "argv, table", [(["forecast"], "forecast"), (["decompose", "--format", "csv"], "series1")]
    )
    def test_special_side_table_writes_nothing(self, kind, argv, table, sample_csv, tmp_path, capsys):
        target = tmp_path / f"out.{table}.csv"
        if kind == "fifo":
            os.mkfifo(target)
        else:
            target.mkdir()
        out = tmp_path / "out.json"
        assert cli.main([*argv, "--input", sample_csv, "--out", str(out)]) == 6
        reason = "not a regular file" if kind == "fifo" else "Is a directory"
        assert f"output error: cannot write {target}: {reason}" in capsys.readouterr().err
        # neither the document nor any other side table was written
        assert os.listdir(tmp_path) == [target.name] and not target.is_file()


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

    def test_cells_without_hr_written(self, tmp_path):
        # at n = 10 the univariate fit has rank 6, so its m = 7 and 8 cells
        # hold no HR at all
        out = str(tmp_path / "mc.json")
        res = run_cli(
            "mc", "--scenario", "A", "--n-list", "10", "--reps", "1", "--out", out
        )
        assert res.returncode == 0, res.stderr
        doc = json.loads(open(out).read())
        keys = [list(rec) for rec in doc["hr_summary"]]
        assert all(k == keys[0] for k in keys)
        empty = [r for r in doc["hr_summary"] if r["hr_x_failed"] == 1]
        assert empty and all(
            r[f"hr_x_{stat}"] is None for r in empty for stat in ("mean", "sd", "q50")
        )
        lines = (tmp_path / "mc.hr_summary.csv").read_text().splitlines()
        assert lines[0] == ",".join(keys[0])
        assert len(lines) == 1 + len(keys)

    @pytest.mark.parametrize(
        "flags",
        [
            ["--alpha", "2"],
            ["--alpha", "nan"],
            ["--methods", "ivssa,ivssa"],
            ["--methods", ","],
            ["--n-list", "40,40"],
        ],
    )
    def test_bad_study_config(self, tmp_path, flags):
        out = str(tmp_path / "mc.json")
        res = run_cli("mc", "--reps", "1", "--n-list", "20", *flags, "--out", out)
        assert res.returncode == 5
        assert "configuration error" in res.stderr
        assert not os.path.exists(out)


def _csv_cell(value) -> str:
    """The text of a document value in a CSV table: 12 significant digits,
    and an empty cell for None or a non-finite float."""
    if value is None or (isinstance(value, float) and not math.isfinite(value)):
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _fields(records, names, **source):
    """Columns of document records; column c holds field source.get(c, c)."""
    return {c: [r[source.get(c, c)] for r in records] for c in names}


def _decompose_tables(doc, series):
    labels = doc["input"]["labels"] or range(1, doc["input"]["n"] + 1)
    return {
        f"series{rec['index']}": {
            "label": list(labels),
            "lo": list(y.lo),
            "hi": list(y.hi),
            "trend_lo": rec["trendline"]["lo"],
            "trend_hi": rec["trendline"]["hi"],
            "resid_lo": rec["residuals"]["lo"],
            "resid_hi": rec["residuals"]["hi"],
        }
        for rec, y in zip(doc["series"], series, strict=True)
    }


def _select_tables(doc, series):
    names = ("series", "m", "converged", "critical_value")
    return {"selection": _fields(doc["series"], names, series="index")}


def _forecast_tables(doc, series):
    fc = doc["forecast"]
    t = [doc["input"]["n"] + step for step in fc["step"]]
    return {"forecast": {"t": t, "lo": fc["lo"], "hi": fc["hi"]}}


def _select_params_tables(doc, series):
    names = ("window", "m", "objective", "failed")
    return {"objective": _fields(doc["oos"]["cells"], names)}


def _simulate_tables(doc, series):
    x, y = doc["x"], doc["y"]
    label = list(range(1, doc["params"]["n"] + 1))
    cols = {"label": label, "lo_1": x["lo"], "hi_1": x["hi"]}
    return {"series": {**cols, "lo_2": y["lo"], "hi_2": y["hi"]}}


def _mc_tables(doc, series):
    tables = {
        name: _fields(doc[name], list(doc[name][0]))
        for name in ("hr_rows", "selection_rows", "hr_summary")
    }
    modes = doc["selection_summary"]
    tables["selection_summary"] = {
        **_fields(modes, ("scenario", "n", "method", "series", "mode")),
        "histogram": [
            ";".join(f"{m}:{c}" for m, c in r["histogram"].items()) for r in modes
        ],
    }
    return tables


CSV_CASES = {
    "decompose-narrow": (["decompose", "--input", "{sample}"], _decompose_tables),
    "decompose-wide": (
        ["decompose", "--input", "{wide}", "--grouping", "fixed:3"],
        _decompose_tables,
    ),
    "select": (["select", "--input", "{wide}", "--stack", "horizontal"], _select_tables),
    "forecast": (["forecast", "--input", "{sample}", "--horizon", "5"], _forecast_tables),
    "select-params": (
        [
            "select-params", "--input", "{sample}", "--l-grid", "10,15,40",
            "--m-grid", "1,2,30", "--horizon", "6", "--stride", "5",
        ],
        _select_params_tables,
    ),
    "simulate": (
        ["simulate", "--scenario", "B", "--n", "25", "--seed", "2"],
        _simulate_tables,
    ),
    "mc": (
        [
            "mc", "--scenario", "A", "--n-list", "10", "--m-list", "1,7",
            "--methods", "ivssa,v-mivssa", "--reps", "2", "--seed", "5",
        ],
        _mc_tables,
    ),
}


@pytest.mark.parametrize("case", list(CSV_CASES))
def test_csv_tables_mirror_document(case, sample_csv, wide_csv, tmp_path):
    """Every cell of every CSV table is the document field it comes from."""
    argv, expected = CSV_CASES[case]
    argv = [a.format(sample=sample_csv, wide=wide_csv) for a in argv]
    out = tmp_path / "doc.json"
    assert cli.main([*argv, "--format", "csv", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    series = read_csv(doc["input"]["path"]) if "input" in doc else None
    tables = expected(doc, series)
    written = sorted(p.name for p in tmp_path.glob("doc.*.csv"))
    assert written == sorted(f"doc.{suffix}.csv" for suffix in tables)
    for suffix, cols in tables.items():
        with open(tmp_path / f"doc.{suffix}.csv", newline="", encoding="utf-8") as fh:
            header, *rows = csv.reader(fh)
        assert header == list(cols)
        assert rows, suffix
        assert all(len(col) == len(rows) for col in cols.values())
        for row, values in zip(rows, zip(*cols.values())):
            assert row == [_csv_cell(v) for v in values]


class TestOneShotScript:
    @pytest.mark.parametrize(
        "args, expected",
        [
            (["--n", "60"], "HR against the true mean curve"),
            (["--input", WEEKLY], "whiteness selection: m ="),
        ],
        ids=["simulated", "weekly"],
    )
    def test_runs(self, args, expected):
        res = subprocess.run(
            [sys.executable, ONE_SHOT, *args],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert res.returncode == 0, res.stderr
        assert expected in res.stdout
        assert "-step forecast:" in res.stdout
