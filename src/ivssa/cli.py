"""Command line front end.

Subcommands: decompose, select, forecast, select-params, simulate, mc.
JSON goes to --out (or stdout); --format csv adds CSV tables next to it.
Exit codes: 0 ok, 2 input parse, 3 input validation, 4 numerical failure,
5 configuration, 1 unexpected.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import __version__
from .core import (
    CsvError,
    DegenerateSpectrumError,
    IntervalSeries,
    InvalidValueError,
    ParameterError,
    ShapeError,
    VerticalityError,
    phi_arrays,
)
from .decomposition import (
    DEFAULT_RANK_EPS,
    decompose,
    decompose_stacked,
)
from .embedding import StackingMode, default_window
from .forecasting import (
    forecast_recurrent,
    recurrence_coefficients,
    select_params_oos,
)
from .io import json_dumps, read_csv, write_json, write_table_csv
from .reconstruction import Grouping, trendline
from .simulation import (
    METHODS,
    ScenarioConfig,
    run_monte_carlo,
    simulate_scenario,
)
from .spectral import select_from_decomposition

#: Fewer rows than this cannot support a meaningful window choice.
MIN_INPUT_ROWS = 4


class _Parser(argparse.ArgumentParser):
    # argparse would exit(2) on bad usage; route it to the config exit code
    def error(self, message):
        raise ParameterError(message)


def _parse_window(text: str) -> int | None:
    if text == "auto":
        return None
    try:
        return int(text)
    except ValueError:
        raise ParameterError(
            f"--window expects an integer or 'auto', got {text!r}"
        ) from None


def _parse_grouping(text: str) -> tuple[str, int | None]:
    if text == "periodogram":
        return "periodogram", None
    if text == "oos":
        return "oos", None
    if text.startswith("fixed:"):
        raw = text[len("fixed:") :]
        try:
            m = int(raw)
        except ValueError:
            raise ParameterError(
                f"--grouping fixed:M expects an integer M, got {raw!r}"
            ) from None
        if m < 1:
            raise ParameterError(f"--grouping fixed:M needs M >= 1, got {m}")
        return "fixed", m
    raise ParameterError(
        f"--grouping expects periodogram, fixed:M or oos, got {text!r}"
    )


def _parse_int_list(text: str, flag: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise ParameterError(
            f"{flag} expects comma-separated integers, got {text!r}"
        ) from None
    if not values:
        raise ParameterError(f"{flag} is empty")
    return values


def _load_input(path: str) -> list[IntervalSeries]:
    series = read_csv(path)
    if len(series[0]) < MIN_INPUT_ROWS:
        raise InvalidValueError(
            f"input has {len(series[0])} rows; need at least {MIN_INPUT_ROWS}"
        )
    return series


def _stack_mode(args, n_series: int) -> StackingMode:
    if n_series == 1:
        return StackingMode.UNIVARIATE
    return StackingMode(args.stack)


def _out_stem(out: str) -> str:
    stem, ext = os.path.splitext(out)
    return stem if ext.lower() == ".json" else out


def _emit(args, doc, csv_tables, always_csv: bool = False) -> None:
    """Write the JSON document and any CSV side tables.

    csv_tables is a list of (suffix, header, rows); files land at
    <stem>.<suffix>.csv beside the JSON output.
    """
    if args.out is None:
        if args.format == "csv" and csv_tables:
            raise ParameterError("--format csv requires --out")
        sys.stdout.write(json_dumps(doc) + "\n")
        return
    write_json(args.out, doc)
    if always_csv or args.format == "csv":
        stem = _out_stem(args.out)
        for suffix, header, rows in csv_tables:
            write_table_csv(f"{stem}.{suffix}.csv", header, rows)


def _series_channels(dec, m: int, series_index: int):
    """Per-component reconstructed channels of one series, plus their
    running totals (summed in component order, so the emitted parts add up
    to the emitted trendline exactly)."""
    ca, cb = dec.component_channels(range(1, m + 1), series_index)
    components = []
    for i in range(m):
        lo, hi = phi_arrays(ca[i], cb[i])
        components.append(
            {"index": i + 1, "lo": lo, "hi": hi, "raw_a": ca[i], "raw_b": cb[i]}
        )
    return components, np.cumsum(ca, axis=0)[-1], np.cumsum(cb, axis=0)[-1]


def _selection_doc(sel) -> dict:
    return {
        "m": sel.m,
        "converged": sel.converged,
        "perfect_fit": sel.perfect_fit,
        "ks_trace": list(sel.ks_trace),
        "critical_value": sel.critical_value,
        "alpha": sel.alpha,
    }


def _input_doc(path: str, series) -> dict:
    return {
        "path": path,
        "n": len(series[0]),
        "n_series": len(series),
        "labels": list(series[0].labels) if series[0].labels else None,
    }


def cmd_decompose(args) -> None:
    series = _load_input(args.input)
    n = len(series[0])
    mode = _stack_mode(args, len(series))
    window = _parse_window(args.window)
    kind, fixed_m = _parse_grouping(args.grouping)
    oos_doc = None
    if kind == "oos":
        if len(series) > 1:
            raise ParameterError(
                "out-of-sample grouping needs a univariate input"
            )
        l_grid = (window,) if window is not None else None
        oos = select_params_oos(series[0], l_grid=l_grid, p=args.horizon)
        window = oos.window
        oos_doc = _oos_doc(oos)
    dec = decompose_stacked(series, window, mode=mode, rank_eps=args.rank_eps)
    per_series = []
    for idx, raw in enumerate(series, start=1):
        sel_doc = None
        if kind == "periodogram":
            sel = select_from_decomposition(
                dec, raw, series_index=idx, alpha=args.alpha, max_m=args.max_m
            )
            m = sel.m
            sel_doc = _selection_doc(sel)
        elif kind == "fixed":
            Grouping.leading(fixed_m).validate(dec.d)
            m = fixed_m
        else:
            m = oos.m
        components, ta, tb = _series_channels(dec, m, idx)
        tlo, thi = phi_arrays(ta, tb)
        res_a = raw.lo - ta
        res_b = raw.hi - tb
        rlo, rhi = phi_arrays(res_a, res_b)
        per_series.append(
            {
                "index": idx,
                "m": m,
                "selection": sel_doc,
                "trendline": {"lo": tlo, "hi": thi, "raw_a": ta, "raw_b": tb},
                "residuals": {
                    "lo": rlo,
                    "hi": rhi,
                    "raw_a": res_a,
                    "raw_b": res_b,
                },
                "components": components,
            }
        )
    doc = {
        "command": "decompose",
        "version": __version__,
        "input": _input_doc(args.input, series),
        "params": {
            "window": dec.window,
            "mode": dec.mode.value,
            "grouping": args.grouping,
            "alpha": args.alpha,
            "rank_eps": args.rank_eps,
        },
        "d": dec.d,
        "eigenvalues": dec.eig.values,
        "oos": oos_doc,
        "series": per_series,
    }
    tables = []
    labels = series[0].labels or tuple(str(t + 1) for t in range(n))
    for rec, raw in zip(per_series, series):
        rows = [
            [
                labels[t],
                raw.lo[t],
                raw.hi[t],
                rec["trendline"]["lo"][t],
                rec["trendline"]["hi"][t],
                rec["residuals"]["lo"][t],
                rec["residuals"]["hi"][t],
            ]
            for t in range(n)
        ]
        tables.append(
            (
                f"series{rec['index']}",
                ["label", "lo", "hi", "trend_lo", "trend_hi", "resid_lo", "resid_hi"],
                rows,
            )
        )
    _emit(args, doc, tables)


def cmd_select(args) -> None:
    series = _load_input(args.input)
    mode = _stack_mode(args, len(series))
    window = _parse_window(args.window)
    dec = decompose_stacked(series, window, mode=mode, rank_eps=args.rank_eps)
    per_series = []
    rows = []
    for idx, raw in enumerate(series, start=1):
        sel = select_from_decomposition(
            dec,
            raw,
            series_index=idx,
            alpha=args.alpha,
            max_m=args.max_m,
        )
        rec = {"index": idx}
        rec.update(_selection_doc(sel))
        per_series.append(rec)
        rows.append([idx, sel.m, sel.converged, sel.critical_value])
    doc = {
        "command": "select",
        "version": __version__,
        "input": _input_doc(args.input, series),
        "params": {
            "window": dec.window,
            "mode": dec.mode.value,
            "alpha": args.alpha,
            "max_m": args.max_m,
            "rank_eps": args.rank_eps,
        },
        "d": dec.d,
        "eigenvalues": dec.eig.values,
        "series": per_series,
    }
    tables = [
        ("selection", ["series", "m", "converged", "critical_value"], rows)
    ]
    _emit(args, doc, tables)


def cmd_forecast(args) -> None:
    series = _load_input(args.input)
    if len(series) > 1:
        raise ParameterError("forecast needs a univariate input")
    y = series[0]
    n = len(y)
    window = _parse_window(args.window)
    kind, fixed_m = _parse_grouping(args.grouping)
    sel_doc = None
    oos_doc = None
    if kind == "oos":
        l_grid = (window,) if window is not None else None
        oos = select_params_oos(y, l_grid=l_grid, p=args.horizon)
        window = oos.window
        m = oos.m
        oos_doc = _oos_doc(oos)
    dec = decompose(y, window, rank_eps=args.rank_eps)
    if kind == "periodogram":
        sel = select_from_decomposition(dec, y, alpha=args.alpha, max_m=args.max_m)
        m = sel.m
        sel_doc = _selection_doc(sel)
    elif kind == "fixed":
        m = fixed_m
    grouping = Grouping.leading(m)
    grouping.validate(dec.d)
    coef = recurrence_coefficients(dec.eig, grouping)
    trend = trendline(dec, grouping)[0]
    fc = forecast_recurrent(trend, coef, args.horizon)
    doc = {
        "command": "forecast",
        "version": __version__,
        "input": _input_doc(args.input, series),
        "params": {
            "window": dec.window,
            "m": m,
            "grouping": args.grouping,
            "alpha": args.alpha,
            "horizon": args.horizon,
            "rank_eps": args.rank_eps,
        },
        "selection": sel_doc,
        "oos": oos_doc,
        "coefficients": coef.alpha,
        "verticality": coef.verticality,
        "trendline": {"lo": trend.lo, "hi": trend.hi},
        "forecast": {
            "step": list(range(1, args.horizon + 1)),
            "lo": fc.values.lo,
            "hi": fc.values.hi,
        },
    }
    rows = [
        [n + t + 1, fc.values.lo[t], fc.values.hi[t]]
        for t in range(args.horizon)
    ]
    tables = [("forecast", ["t", "lo", "hi"], rows)]
    _emit(args, doc, tables, always_csv=True)


def _oos_doc(oos) -> dict:
    cells = [
        {
            "window": window,
            "m": m,
            "objective": None
            if (window, m) in oos.failed
            else oos.objective[(window, m)],
            "failed": (window, m) in oos.failed,
        }
        for window in oos.l_grid
        for m in oos.m_grid
    ]
    return {
        "window": oos.window,
        "m": oos.m,
        "w0": oos.w0,
        "p": oos.p,
        "stride": oos.stride,
        "n_windows": oos.n_windows,
        "l_grid": list(oos.l_grid),
        "m_grid": list(oos.m_grid),
        "cells": cells,
    }


def cmd_select_params(args) -> None:
    series = _load_input(args.input)
    if len(series) > 1:
        raise ParameterError("select-params needs a univariate input")
    y = series[0]
    l_grid = _parse_int_list(args.l_grid, "--l-grid") if args.l_grid else None
    m_grid = _parse_int_list(args.m_grid, "--m-grid") if args.m_grid else None
    oos = select_params_oos(
        y,
        l_grid=l_grid,
        m_grid=m_grid,
        w0=args.w0,
        p=args.horizon,
        stride=args.stride,
        rank_eps=args.rank_eps,
    )
    doc = {
        "command": "select-params",
        "version": __version__,
        "input": _input_doc(args.input, series),
        "oos": _oos_doc(oos),
    }
    rows = [
        [
            c["window"],
            c["m"],
            c["objective"],
            c["failed"],
        ]
        for c in doc["oos"]["cells"]
    ]
    tables = [("objective", ["window", "m", "objective", "failed"], rows)]
    _emit(args, doc, tables)


def cmd_simulate(args) -> None:
    config = ScenarioConfig.from_name(args.scenario, args.n, args.seed)
    data = simulate_scenario(config)
    doc = {
        "command": "simulate",
        "version": __version__,
        "params": {
            "scenario": args.scenario.upper(),
            "n": config.n,
            "seed": config.seed,
            "rho": config.rho,
            "sigma2": config.sigma2,
            "generator": "pcg64",
        },
        "x": {"lo": data.x.lo, "hi": data.x.hi},
        "y": {"lo": data.y.lo, "hi": data.y.hi},
        "x_mean": {"lo": data.x_mean.lo, "hi": data.x_mean.hi},
        "y_mean": {"lo": data.y_mean.lo, "hi": data.y_mean.hi},
    }
    rows = [
        [t + 1, data.x.lo[t], data.x.hi[t], data.y.lo[t], data.y.hi[t]]
        for t in range(config.n)
    ]
    tables = [("series", ["label", "lo_1", "hi_1", "lo_2", "hi_2"], rows)]
    _emit(args, doc, tables)


def cmd_mc(args) -> None:
    scenarios = ("A", "B") if args.scenario == "both" else (args.scenario,)
    methods = (
        tuple(m.strip() for m in args.methods.split(",") if m.strip())
        if args.methods
        else METHODS
    )
    n_list = _parse_int_list(args.n_list, "--n-list")
    m_list = _parse_int_list(args.m_list, "--m-list")
    report = run_monte_carlo(
        scenarios=scenarios,
        n_list=n_list,
        m_list=m_list,
        methods=methods,
        reps=args.reps,
        base_seed=args.seed,
        alpha=args.alpha,
        max_m=args.max_m,
    )
    doc = {"command": "mc", "version": __version__}
    doc.update(report.to_dict())
    hr_rows = [
        [r.scenario, r.n, r.method, r.m, r.rep, r.seed, r.hr_x, r.hr_y]
        for r in report.hr_rows
    ]
    sel_rows = [
        [r.scenario, r.n, r.method, r.series, r.rep, r.seed, r.m, r.converged]
        for r in report.selection_rows
    ]
    summary_rows = []
    summary_header = None
    for rec in report.hr_summary():
        if summary_header is None:
            summary_header = list(rec.keys())
        summary_rows.append([rec[k] for k in summary_header])
    mode_rows = [
        [
            rec["scenario"],
            rec["n"],
            rec["method"],
            rec["series"],
            rec["mode"],
            ";".join(f"{m}:{c}" for m, c in rec["histogram"].items()),
        ]
        for rec in report.selection_summary()
    ]
    tables = [
        (
            "hr_rows",
            ["scenario", "n", "method", "m", "rep", "seed", "hr_x", "hr_y"],
            hr_rows,
        ),
        (
            "selection_rows",
            ["scenario", "n", "method", "series", "rep", "seed", "m", "converged"],
            sel_rows,
        ),
        ("hr_summary", summary_header or [], summary_rows),
        (
            "selection_summary",
            ["scenario", "n", "method", "series", "mode", "histogram"],
            mode_rows,
        ),
    ]
    _emit(args, doc, tables, always_csv=True)


def _add_common_out(sub) -> None:
    sub.add_argument("--out", help="output JSON path (default: stdout)")
    sub.add_argument(
        "--format",
        choices=("json", "csv"),
        default="json",
        help="csv also writes CSV tables beside the JSON output",
    )


def _add_rank_eps(sub) -> None:
    sub.add_argument(
        "--rank-eps",
        type=float,
        default=DEFAULT_RANK_EPS,
        help="relative eigenvalue cutoff for the numerical rank",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ivssa", description=__doc__)
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("decompose", help="decompose into interval components")
    p.add_argument("--input", required=True)
    p.add_argument("--window", default="auto")
    p.add_argument("--stack", choices=("vertical", "horizontal"), default="vertical")
    p.add_argument("--grouping", default="periodogram")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--max-m", type=int, default=None)
    p.add_argument("--horizon", type=int, default=12, help="oos grouping horizon")
    _add_rank_eps(p)
    _add_common_out(p)
    p.set_defaults(func=cmd_decompose)

    p = subs.add_parser("select", help="pick the component count by whiteness")
    p.add_argument("--input", required=True)
    p.add_argument("--window", default="auto")
    p.add_argument("--stack", choices=("vertical", "horizontal"), default="vertical")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--max-m", type=int, default=None)
    _add_rank_eps(p)
    _add_common_out(p)
    p.set_defaults(func=cmd_select)

    p = subs.add_parser("forecast", help="recurrent out-of-sample forecast")
    p.add_argument("--input", required=True)
    p.add_argument("--window", default="auto")
    p.add_argument("--grouping", default="periodogram")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--max-m", type=int, default=None)
    p.add_argument("--horizon", type=int, default=12)
    _add_rank_eps(p)
    _add_common_out(p)
    p.set_defaults(func=cmd_forecast)

    p = subs.add_parser(
        "select-params", help="grid-search window and m by forecast error"
    )
    p.add_argument("--input", required=True)
    p.add_argument("--l-grid", default=None, help="comma-separated windows")
    p.add_argument("--m-grid", default=None, help="comma-separated m values")
    p.add_argument("--w0", type=int, default=None, help="first fit length")
    p.add_argument("--horizon", type=int, default=12, help="held-out horizon p")
    p.add_argument("--stride", type=int, default=1)
    _add_rank_eps(p)
    _add_common_out(p)
    p.set_defaults(func=cmd_select_params)

    p = subs.add_parser("simulate", help="draw one synthetic bivariate sample")
    p.add_argument("--scenario", required=True, choices=("A", "B", "a", "b"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    _add_common_out(p)
    p.set_defaults(func=cmd_simulate)

    p = subs.add_parser("mc", help="Monte Carlo accuracy study")
    p.add_argument(
        "--scenario", choices=("A", "B", "a", "b", "both"), default="both"
    )
    p.add_argument("--n-list", default="100,250")
    p.add_argument("--m-list", default="1,2,3,4,5,6,7,8")
    p.add_argument("--methods", default=None, help="comma-separated method names")
    p.add_argument("--reps", type=int, default=200)
    p.add_argument("--seed", type=int, default=1729)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--max-m", type=int, default=None)
    _add_common_out(p)
    p.set_defaults(func=cmd_mc)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args.func(args)
        return 0
    except CsvError as exc:
        print(f"ivssa: parse error: {exc}", file=sys.stderr)
        return 2
    except (InvalidValueError, ShapeError) as exc:
        print(f"ivssa: invalid input: {exc}", file=sys.stderr)
        return 3
    except (VerticalityError, DegenerateSpectrumError, np.linalg.LinAlgError) as exc:
        print(f"ivssa: numerical failure: {exc}", file=sys.stderr)
        return 4
    except ParameterError as exc:
        print(f"ivssa: configuration error: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
