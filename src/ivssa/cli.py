"""Command line front end.

Subcommands: decompose, select, forecast, select-params, simulate, mc.
JSON goes to --out (or stdout); --format csv adds CSV tables next to it.
Exit codes: 0 ok, 2 input parse, 3 input validation, 4 numerical failure,
5 configuration, 6 output not writable, 1 unexpected.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

import numpy as np

from . import __version__
from .core import (
    CsvError,
    DegenerateSpectrumError,
    IntervalSeries,
    InvalidValueError,
    OutputError,
    ParameterError,
    ShapeError,
    VerticalityError,
    _integer,
    phi_arrays,
)
from .decomposition import DEFAULT_RANK_EPS, decompose_stacked
from .embedding import StackingMode, default_window
from .forecasting import (
    forecast_recurrent,
    recurrence_coefficients,
    select_params_oos,
)
from .io import (
    check_regular_target,
    json_dumps,
    read_csv,
    series_columns,
    write_json,
    write_table_csv,
)
from .reconstruction import Grouping, trendline
from .simulation import (
    GENERATOR,
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
    if text in ("periodogram", "oos"):
        return text, None
    if text.startswith("fixed:"):
        raw = text[len("fixed:") :]
        try:
            m = int(raw)
        except ValueError:
            raise ParameterError(
                f"--grouping fixed:M expects an integer M, got {raw!r}"
            ) from None
        return "fixed", _integer(m, "--grouping fixed:M", 1)
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


def _emit(args, doc, tables, always_csv: bool = False) -> None:
    """Write the JSON document and any CSV side tables.

    tables maps a suffix to a dict of named, equal-length columns taken
    from the document; each lands at <stem>.<suffix>.csv, stem being the
    output path less a .json extension, and its rows are zipped only when
    it is written.  Every target is checked before any is written, so a
    refused one leaves no file.
    """
    if args.out is None:
        sys.stdout.write(json_dumps(doc) + "\n")
        return
    paths = _checked_targets(args, tables, always_csv)
    write_json(args.out, doc)
    for path, cols in zip(paths, tables.values()):
        write_table_csv(path, list(cols), zip(*cols.values()))


def _checked_targets(args, suffixes, always_csv: bool) -> list[str]:
    """The side-table paths of ``_emit``, once they and ``args.out`` pass as targets."""
    stem, ext = os.path.splitext(args.out)
    stem = stem if ext.lower() == ".json" else args.out
    tabled = always_csv or args.format == "csv"
    paths = [f"{stem}.{suffix}.csv" for suffix in suffixes if tabled]
    for path in (args.out, *paths):
        check_regular_target(path)
    return paths


def _record_columns(records, keys=None, **renamed) -> dict:
    """Columns of a list of dict records: the fields ``keys`` (every field
    of the first record by default), field f headed ``renamed.get(f, f)``."""
    if keys is None:
        keys = list(records[0]) if records else []
    return {renamed.get(k, k): [r[k] for r in records] for k in keys}


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


def _fit(args, series, oos: bool = False):
    """The one decomposition of a command: parse --window, and with ``oos``
    let the out-of-sample search (at --window when one is given) pick the
    window first.  Returns the decomposition and the search result or None."""
    window = _parse_window(args.window)
    search = None
    if oos:
        if len(series) > 1:
            raise ParameterError(
                "out-of-sample grouping needs a univariate input"
            )
        search = select_params_oos(
            series[0],
            l_grid=(window,) if window is not None else None,
            p=args.horizon,
            rank_eps=args.rank_eps,
        )
        window = search.window
    mode = StackingMode.UNIVARIATE if len(series) == 1 else StackingMode(args.stack)
    dec = decompose_stacked(series, window, mode=mode, rank_eps=args.rank_eps)
    return dec, search


def _group_size(args, kind, fixed_m, dec, oos, y, series_index=1):
    """m of one series under --grouping, and the selection document (None
    unless the periodogram scan picked m)."""
    if kind == "periodogram":
        sel = select_from_decomposition(
            dec, y, series_index=series_index, alpha=args.alpha, max_m=args.max_m
        )
        return sel.m, _selection_doc(sel)
    return (fixed_m if kind == "fixed" else oos.m), None


def cmd_decompose(args) -> None:
    series = _load_input(args.input)
    kind, fixed_m = _parse_grouping(args.grouping)
    dec, oos = _fit(args, series, kind == "oos")
    per_series = []
    for idx, raw in enumerate(series, start=1):
        m, sel_doc = _group_size(args, kind, fixed_m, dec, oos, raw, idx)
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
        "oos": None if oos is None else _oos_doc(oos),
        "series": per_series,
    }
    tables = {
        f"series{rec['index']}": {
            **series_columns(raw),
            "trend_lo": rec["trendline"]["lo"],
            "trend_hi": rec["trendline"]["hi"],
            "resid_lo": rec["residuals"]["lo"],
            "resid_hi": rec["residuals"]["hi"],
        }
        for rec, raw in zip(per_series, series)
    }
    _emit(args, doc, tables)


def cmd_select(args) -> None:
    series = _load_input(args.input)
    dec, _ = _fit(args, series)
    per_series = []
    for idx, raw in enumerate(series, start=1):
        sel = select_from_decomposition(
            dec, raw, series_index=idx, alpha=args.alpha, max_m=args.max_m
        )
        per_series.append({"index": idx, **_selection_doc(sel)})
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
    cols = ("index", "m", "converged", "critical_value")
    tables = {"selection": _record_columns(per_series, cols, index="series")}
    _emit(args, doc, tables)


def cmd_forecast(args) -> None:
    series = _load_input(args.input)
    if len(series) > 1:
        raise ParameterError("forecast needs a univariate input")
    y = series[0]
    n = len(y)
    kind, fixed_m = _parse_grouping(args.grouping)
    dec, oos = _fit(args, series, kind == "oos")
    m, sel_doc = _group_size(args, kind, fixed_m, dec, oos, y)
    grouping = Grouping.leading(m)
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
        "oos": None if oos is None else _oos_doc(oos),
        "coefficients": coef.alpha,
        "verticality": coef.verticality,
        "trendline": {"lo": trend.lo, "hi": trend.hi},
        "forecast": {
            "step": list(range(1, args.horizon + 1)),
            "lo": fc.values.lo,
            "hi": fc.values.hi,
        },
    }
    steps = range(n + 1, n + args.horizon + 1)
    tables = {"forecast": {"t": steps, "lo": fc.values.lo, "hi": fc.values.hi}}
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
            "failure": oos.failure_reasons.get((window, m)),
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
    cols = ("window", "m", "objective", "failed")
    tables = {"objective": _record_columns(doc["oos"]["cells"], cols)}
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
            "generator": GENERATOR,
        },
        "x": {"lo": data.x.lo, "hi": data.x.hi},
        "y": {"lo": data.y.lo, "hi": data.y.hi},
        "x_mean": {"lo": data.x_mean.lo, "hi": data.x_mean.hi},
        "y_mean": {"lo": data.y_mean.lo, "hi": data.y_mean.hi},
    }
    _emit(args, doc, {"series": series_columns([data.x, data.y])})


def cmd_mc(args) -> None:
    scenarios = ("A", "B") if args.scenario == "both" else (args.scenario,)
    methods = (
        tuple(m.strip() for m in args.methods.split(",") if m.strip())
        if args.methods
        else METHODS
    )
    n_list = _parse_int_list(args.n_list, "--n-list")
    m_list = _parse_int_list(args.m_list, "--m-list")
    names = ("hr_rows", "selection_rows", "hr_summary", "selection_summary")
    if args.out is not None:  # refuse a bad target before the study, not after
        _checked_targets(args, names, always_csv=True)
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
    # every table keeps its records' fields in order, but the histogram,
    # flattened to "m:count;...", moves to the last column
    tables = {name: _record_columns(doc[name]) for name in names}
    modes = tables["selection_summary"]
    modes["histogram"] = [
        ";".join(f"{m}:{c}" for m, c in h.items()) for h in modes.pop("histogram")
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


def _add_fit_options(sub, stack: bool, grouping: bool) -> None:
    """Options of the commands that fit one decomposition and scan it:
    decompose, select and forecast."""
    sub.add_argument("--input", required=True)
    sub.add_argument("--window", default="auto")
    if stack:
        sub.add_argument("--stack", choices=("vertical", "horizontal"), default="vertical")
    if grouping:
        sub.add_argument("--grouping", default="periodogram")
    sub.add_argument("--alpha", type=float, default=0.05)
    sub.add_argument("--max-m", type=int, default=None)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once: ``parse_args`` leaves it as it was."""
    parser = _Parser(prog="ivssa", description=__doc__)
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("decompose", help="decompose into interval components")
    _add_fit_options(p, stack=True, grouping=True)
    p.add_argument("--horizon", type=int, default=12, help="oos grouping horizon")
    _add_rank_eps(p)
    _add_common_out(p)
    p.set_defaults(func=cmd_decompose)

    p = subs.add_parser("select", help="pick the component count by whiteness")
    _add_fit_options(p, stack=True, grouping=False)
    _add_rank_eps(p)
    _add_common_out(p)
    p.set_defaults(func=cmd_select)

    p = subs.add_parser("forecast", help="recurrent out-of-sample forecast")
    _add_fit_options(p, stack=False, grouping=True)
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
        if args.format == "csv" and args.out is None:
            raise ParameterError("--format csv requires --out")
        if args.out:
            out_dir = os.path.dirname(os.path.abspath(args.out))
            if not (os.path.isdir(out_dir) and os.access(out_dir, os.W_OK)):
                raise OutputError(f"cannot write {args.out}: no writable directory {out_dir}")
            check_regular_target(args.out)
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
    except OutputError as exc:
        print(f"ivssa: output error: {exc}", file=sys.stderr)
        return 6


if __name__ == "__main__":
    sys.exit(main())
