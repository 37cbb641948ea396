"""The four benchmark workloads: generated inputs, one request, and checks.

Each workload is a closed loop with one client.  Request ``i`` of a run is a
pure function of the run seed and ``i``; request 0 is the warm-up.  A
request returns its output object; ``summarize`` turns it into a small
record that the reference check compares, and ``invariants`` lists the
properties that must hold for any seed.

The module imports ``ivssa`` lazily, through attribute lookups at call time,
so the traced run's wrappers (installed on the ``ivssa`` namespaces) see
every call the workload makes.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from dataclasses import fields, is_dataclass
from enum import Enum

import numpy as np

import ivssa
import ivssa.cli

#: Relative and absolute tolerance for float fields in the reference check.
RTOL = 1e-6
ATOL = 1e-9

#: Seeds spaced so per-request seeds of different runs never collide.
SEED_STRIDE = 100_000

#: Rows of each cli-weekly input file, files per run, and how many of the
#: first calls keep their output file for the invariant checks.
WEEKLY_ROWS = 400
WEEKLY_FILES = 64
KEPT_CALLS = 24
CLI_COMMANDS = ("decompose", "forecast", "select")

OOS_N = 100
LONG_N = 1000
LONG_HORIZON = 24


def _rng(seed: int, i: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([salt, seed, i])


def oos_input(seed: int, i: int) -> tuple[np.ndarray, np.ndarray]:
    """Trend, a 12-step season and endpoint noise, about 100 points."""
    rng = _rng(seed, i, 1)
    t = np.arange(OOS_N)
    mid = (
        10.0
        + 0.03 * t
        + 1.5 * np.sin(2 * np.pi * t / 12.0 + rng.uniform(0.0, 2 * np.pi))
        + rng.normal(0.0, 0.4, OOS_N)
    )
    half = 0.5 + rng.uniform(0.0, 0.25, OOS_N)
    return mid - half, mid + half


def long_input(seed: int, i: int) -> tuple[np.ndarray, np.ndarray]:
    """Smooth trend plus one cycle and white endpoint noise, 1000 points.

    The whiteness scan accepts at m = 3 (trend plus a sine pair) for about
    19 inputs in 20; the rest are the test's own false rejections.
    """
    rng = _rng(seed, i, 2)
    t = np.arange(LONG_N)
    mid = (
        20.0
        + 0.004 * t
        + 3.0 * np.sin(2 * np.pi * t / 100.0 + rng.uniform(0.0, 2 * np.pi))
        + rng.normal(0.0, 0.5, LONG_N)
    )
    half = 1.0 + rng.uniform(0.0, 0.2, LONG_N)
    return mid - half, mid + half


def weekly_input(seed: int, i: int) -> tuple[np.ndarray, np.ndarray]:
    """Weekly low/high prices: a log-random walk with drift and an annual swing."""
    rng = _rng(seed, i, 3)
    t = np.arange(WEEKLY_ROWS)
    log_mid = (
        math.log(850.0)
        + 0.004 * t
        + 0.06 * np.sin(2 * np.pi * t / 52.0)
        + np.cumsum(rng.normal(0.0, 0.025, WEEKLY_ROWS))
    )
    mid = np.exp(log_mid)
    half = mid * (0.01 + rng.uniform(0.0, 0.035, WEEKLY_ROWS))
    return mid - half, mid + half


def write_weekly_csv(path: str, lo: np.ndarray, hi: np.ndarray) -> None:
    """Narrow CSV with round-trip float text, so the file holds the exact input."""
    lines = ["label,lo,hi"]
    lines += [f"w{t + 1:03d},{float(a)!r},{float(b)!r}" for t, (a, b) in enumerate(zip(lo, hi))]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


class Workload:
    """One workload bound to a run seed and a scratch directory."""

    name = ""
    #: Requests per second measured on a 2-core machine; sizes the traced run.
    nominal_rate = 1.0
    #: Timed requests 1..checked are compared with the stored reference.
    checked = 1
    #: What ``fail_ratio`` counts, for the printed report.
    fail_unit = "requests"

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        """Generate the inputs that must exist before the first request."""

    def request(self, i: int):
        raise NotImplementedError

    def request_failed(self, out) -> bool:
        """Whether the request as a whole failed (it raised, or the CLI exited non-zero)."""
        return False

    def failures(self, out) -> tuple[int, int]:
        """(failed, attempted) in the workload's own unit of work."""
        return int(self.request_failed(out)), 1

    def summarize(self, out) -> dict:
        raise NotImplementedError

    def invariants(self, out) -> list[str]:
        return []

    def record(self, i: int, out) -> list[str]:
        """Check one output right after its request; returns error messages."""
        return self.invariants(out)

    def finish(self) -> list[str]:
        """Checks deferred until the loop has ended."""
        return []

    def digest(self, out) -> str:
        h = hashlib.sha256()
        _canonical(out, h)
        return h.hexdigest()


class MonteCarlo(Workload):
    """One replication of the paper's study: scenarios A and B, n in {100, 250},
    all three methods, m = 1..8."""

    name = "mc"
    nominal_rate = 4.5
    fail_unit = "HR and selection rows"

    def request(self, i):
        return ivssa.run_monte_carlo(reps=1, base_seed=self.seed * SEED_STRIDE + i)

    def failures(self, rep):
        bad = sum(r.hr_x is None or r.hr_y is None for r in rep.hr_rows)
        bad += sum(r.m is None for r in rep.selection_rows)
        return bad, len(rep.hr_rows) + len(rep.selection_rows)

    def summarize(self, rep):
        return {
            "selected": [[r.m, r.converged] for r in rep.selection_rows],
            "hr": [[r.hr_x, r.hr_y] for r in rep.hr_rows],
        }

    def invariants(self, rep):
        errs = []
        for r in rep.hr_rows:
            for v in (r.hr_x, r.hr_y):
                if v is not None and not (math.isfinite(v) and v >= 0.0):
                    errs.append(f"hr: {r.scenario}/{r.n}/{r.method}/m={r.m} is {v}")
        return errs


class OutOfSample(Workload):
    """``select_params_oos`` with the default grid on a ~100-point series."""

    name = "oos"
    nominal_rate = 2.5
    fail_unit = "grid cells"

    def request(self, i):
        lo, hi = oos_input(self.seed, i)
        return ivssa.select_params_oos(ivssa.IntervalSeries(lo, hi))

    def failures(self, res):
        return len(res.failed), len(res.objective)

    def summarize(self, res):
        cells = [(w, m) for w in res.l_grid for m in res.m_grid]
        return {
            "pick": [res.window, res.m],
            "failed": sorted([list(c) for c in res.failed]),
            "objective": [None if c in res.failed else res.objective[c] for c in cells],
        }

    def invariants(self, res):
        errs = []
        if (res.window, res.m) in res.failed:
            errs.append("pick: the chosen cell is marked failed")
        for cell, v in res.objective.items():
            if cell not in res.failed and not (math.isfinite(v) and v >= 0.0):
                errs.append(f"objective{list(cell)}: {v}")
        return errs


class LongSeries(Workload):
    """The README pipeline on one smooth 1000-point series."""

    name = "long"
    nominal_rate = 5.0
    checked = 2

    def request(self, i):
        lo, hi = long_input(self.seed, i)
        try:
            y = ivssa.IntervalSeries(lo, hi)
            dec = ivssa.decompose(y)
            sel = ivssa.select_from_decomposition(dec, y)
            grouping = ivssa.Grouping.leading(sel.m)
            ercs = ivssa.reconstruct_ercs(dec, sel.m)
            trend = ivssa.trendline(dec, grouping)[0]
            coef = ivssa.recurrence_coefficients(dec.eig, grouping)
            fc = ivssa.forecast_recurrent(trend, coef, LONG_HORIZON)
        except (ivssa.IvssaError, np.linalg.LinAlgError) as exc:
            return f"{type(exc).__name__}: {exc}"
        return dec, sel, ercs, trend, coef, fc

    def request_failed(self, out):
        return isinstance(out, str)

    def summarize(self, out):
        if isinstance(out, str):
            return {"error": out}
        dec, sel, _ercs, _trend, coef, fc = out
        return {
            "d": dec.d,
            "m": sel.m,
            "ks_trace": list(sel.ks_trace),
            "verticality": coef.verticality,
            "forecast_lo": fc.values.lo.tolist(),
            "forecast_hi": fc.values.hi.tolist(),
        }

    def invariants(self, out):
        if isinstance(out, str):
            return [f"request: {out}"]
        _dec, _sel, ercs, trend, _coef, fc = out
        errs = _interval_errors("trendline", trend.lo, trend.hi)
        errs += _interval_errors("forecast", fc.values.lo, fc.values.hi)
        for k, comp in enumerate(ercs.components, start=1):
            errs += _interval_errors(f"erc{k}", comp[0].lo, comp[0].hi)
        # ERC pair channels add up to the trendline's pre-phi channels.
        sum_a = np.sum([p[0][0] for p in ercs.pairs], axis=0)
        sum_b = np.sum([p[0][1] for p in ercs.pairs], axis=0)
        lo, hi = ivssa.phi_arrays(sum_a, sum_b)
        scale = float(np.max(np.abs(trend.hi)))
        if not (_close_arrays(lo, trend.lo, scale) and _close_arrays(hi, trend.hi, scale)):
            errs.append("ercs: components do not add up to the trendline")
        return errs


class CliWeekly(Workload):
    """In-process ``ivssa.cli.main`` calls on weekly-shaped price files.

    Timed call ``i`` (from 1) runs ``CLI_COMMANDS[(i - 1) % 3]`` on file
    ``((i - 1) // 3) % WEEKLY_FILES``, so every command runs equally often.  The first ``KEPT_CALLS`` calls keep
    their output files for the checks; later calls overwrite one file per
    command.
    """

    name = "cli-weekly"
    nominal_rate = 4.8
    checked = 3
    fail_unit = "CLI calls"

    def setup(self):
        self.kept = []
        self.inputs = []
        for f in range(WEEKLY_FILES + 1):  # the last file feeds the warm-up
            path = os.path.join(self.workdir, f"weekly{f}.csv")
            write_weekly_csv(path, *weekly_input(self.seed, f))
            self.inputs.append(path)

    def request(self, i):
        if i == 0:
            cmd, path = "decompose", self.inputs[-1]
        else:
            j = i - 1
            cmd, path = CLI_COMMANDS[j % 3], self.inputs[(j // 3) % WEEKLY_FILES]
        keep = 1 <= i <= KEPT_CALLS
        out = os.path.join(self.workdir, f"out{i}.json" if keep else f"out-{cmd}.json")
        code = ivssa.cli.main([cmd, "--input", path, "--out", out])
        return {"command": cmd, "input": path, "out": out, "exit": code}

    def request_failed(self, call):
        return call["exit"] != 0

    def record(self, i, call):
        # Parsing a 2 MB document per call would slow the loop; the kept
        # files are checked in ``finish``.
        if 1 <= i <= KEPT_CALLS:
            self.kept.append((i, call))
        return [f"exit: {call['command']} returned {call['exit']}"] if call["exit"] else []

    def finish(self):
        kept, self.kept = self.kept, []
        return [f"request {i}: {e}" for i, call in kept for e in self.invariants(call)]

    def _load(self, call):
        with open(call["out"], encoding="utf-8") as fh:
            return json.load(fh)

    def summarize(self, call):
        rec = {"command": call["command"], "exit": call["exit"]}
        if call["exit"] != 0:
            return rec
        doc = self._load(call)
        if call["command"] == "forecast":
            rec["m"] = doc["params"]["m"]
            rec["ks_trace"] = doc["selection"]["ks_trace"]
            rec["forecast_lo"] = doc["forecast"]["lo"]
            rec["forecast_hi"] = doc["forecast"]["hi"]
            return rec
        series = doc["series"][0]
        sel = series if call["command"] == "select" else series["selection"]
        rec["d"] = doc["d"]
        rec["m"] = sel["m"]
        rec["ks_trace"] = sel["ks_trace"]
        if call["command"] == "decompose":
            trend = series["trendline"]
            rec["trend_sum"] = [math.fsum(trend["raw_a"]), math.fsum(trend["raw_b"])]
        return rec

    def invariants(self, call):
        if call["exit"] != 0:
            return [f"exit: {call['command']} returned {call['exit']}"]
        doc = self._load(call)
        errs = []
        if call["command"] == "forecast":
            errs += _interval_errors("trendline", doc["trendline"]["lo"], doc["trendline"]["hi"])
            errs += _interval_errors("forecast", doc["forecast"]["lo"], doc["forecast"]["hi"])
        elif call["command"] == "decompose":
            lo, hi = _read_narrow_csv(call["input"])
            s = doc["series"][0]
            tr, res = s["trendline"], s["residuals"]
            errs += _interval_errors("trendline", tr["lo"], tr["hi"])
            errs += _interval_errors("residuals", res["lo"], res["hi"])
            for comp in s["components"]:
                errs += _interval_errors(f"component{comp['index']}", comp["lo"], comp["hi"])
            scale = float(np.max(np.abs(hi)))
            back_a = np.add(tr["raw_a"], res["raw_a"])
            back_b = np.add(tr["raw_b"], res["raw_b"])
            if not (_close_arrays(back_a, lo, scale) and _close_arrays(back_b, hi, scale)):
                errs.append("trendline+residuals: raw channels do not reproduce the input")
        return errs

    def digest(self, call):
        with open(call["out"], "rb") as fh:
            data = fh.read()
        return hashlib.sha256(f"{call['exit']}:".encode() + data).hexdigest()


WORKLOADS = {w.name: w for w in (MonteCarlo, OutOfSample, CliWeekly, LongSeries)}


def _read_narrow_csv(path: str) -> tuple[np.ndarray, np.ndarray]:
    with open(path, encoding="utf-8") as fh:
        rows = [line.rstrip("\n").split(",") for line in fh][1:]
    return np.array([float(r[1]) for r in rows]), np.array([float(r[2]) for r in rows])


def _interval_errors(field: str, lo, hi) -> list[str]:
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    bad = np.flatnonzero(~(lo <= hi))
    if bad.size:
        t = int(bad[0])
        return [f"{field}[{t}]: lo={lo[t]!r} > hi={hi[t]!r} ({bad.size} intervals)"]
    return []


def _close_arrays(a, b, scale: float) -> bool:
    return bool(np.all(np.abs(np.asarray(a) - np.asarray(b)) <= 1e-12 * max(scale, 1.0)))


def compare(ref, got, path: str = "") -> list[str]:
    """Field-by-field comparison: integers, booleans and strings exactly,
    floats within RTOL/ATOL, NaN only against NaN."""
    if isinstance(ref, dict) and isinstance(got, dict):
        if set(ref) != set(got):
            return [f"{path}: keys {sorted(ref)} != {sorted(got)}"]
        return [e for k in ref for e in compare(ref[k], got[k], f"{path}.{k}" if path else k)]
    if isinstance(ref, list) and isinstance(got, list):
        if len(ref) != len(got):
            return [f"{path}: length {len(got)}, reference {len(ref)}"]
        return [e for k, (r, g) in enumerate(zip(ref, got)) for e in compare(r, g, f"{path}[{k}]")]
    if isinstance(ref, float) or isinstance(got, float):
        if isinstance(ref, bool) or isinstance(got, bool) or ref is None or got is None:
            return [f"{path}: {got!r}, reference {ref!r}"]
        r, g = float(ref), float(got)
        if math.isnan(r) and math.isnan(g):
            return []
        if not abs(r - g) <= RTOL * max(abs(r), abs(g)) + ATOL:
            return [f"{path}: {g!r}, reference {r!r} (rtol {RTOL})"]
        return []
    if type(ref) is not type(got) or ref != got:
        return [f"{path}: {got!r}, reference {ref!r}"]
    return []


def rounded(obj):
    """Summary with floats cut to 10 significant digits, for storage."""
    if isinstance(obj, dict):
        return {k: rounded(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [rounded(v) for v in obj]
    if isinstance(obj, float) and math.isfinite(obj):
        return float(f"{obj:.10g}")
    return obj


def _canonical(obj, h) -> None:
    """Feed an exact, type-tagged byte form of an output object into a hash."""
    if isinstance(obj, np.ndarray):
        h.update(f"a{obj.dtype.str}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif is_dataclass(obj):
        h.update(f"D{type(obj).__name__}".encode())
        for f in fields(obj):
            _canonical(getattr(obj, f.name), h)
    elif isinstance(obj, Enum):
        h.update(f"E{obj!r}".encode())
    elif isinstance(obj, (bool, int, str)) or obj is None:
        h.update(f"{type(obj).__name__}:{obj!r};".encode())
    elif isinstance(obj, (float, np.floating)):
        h.update(b"f" + struct.pack("<d", float(obj)))
    elif isinstance(obj, dict):
        h.update(f"d{len(obj)}".encode())
        for k in sorted(obj, key=repr):
            _canonical(k, h)
            _canonical(obj[k], h)
    elif isinstance(obj, (frozenset, set)):
        h.update(f"s{len(obj)}".encode())
        for v in sorted(obj, key=repr):
            _canonical(v, h)
    elif isinstance(obj, (list, tuple)):
        h.update(f"l{len(obj)}".encode())
        for v in obj:
            _canonical(v, h)
    else:
        raise TypeError(f"no canonical form for {type(obj).__name__}")
