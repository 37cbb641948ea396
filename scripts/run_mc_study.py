"""Full Monte Carlo accuracy study.

Runs the simulation study at publication scale (1000 replications by
default; pass --reps 200 for the quicker desk-scale run), writes the
report JSON plus a flat hr_summary CSV, and prints per-cell tables of
mean HR by m with the whiteness-selected m mode underneath.

Runtime is a few minutes at reps=1000.  Replications run in order, in
one process; BLAS threads follow the BLAS's own variable (for example
OPENBLAS_NUM_THREADS).
"""

from __future__ import annotations

import argparse
import time

from ivssa import __version__, run_monte_carlo
from ivssa.io import write_json, write_table_csv


def parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(",") if v.strip())


def stream_columns(report) -> list[tuple[str, str]]:
    cols = []
    for method in report.methods:
        cols.append((method, "x"))
        if method != "ivssa":
            cols.append((method, "y"))
    return cols


def print_cell(report, scenario: str, n: int) -> None:
    cols = stream_columns(report)
    names = [f"{m}/{s}" for m, s in cols]
    width = max(10, max(len(c) for c in names) + 2)
    print(f"\nscenario {scenario}, n = {n}  (mean HR by m, * = column best)")
    print("  m  " + "".join(f"{c:>{width}}" for c in names))
    best = {
        (method, series): report.best_m(scenario, n, method, series)
        for method, series in cols
    }
    for m in report.m_list:
        cells = []
        for method, series in cols:
            val = report.mean_hr(scenario, n, method, m, series)
            mark = "*" if best[(method, series)] == m else " "
            cells.append(f"{val:.4f}{mark}".rjust(width))
        print(f"{m:>3}  " + "".join(cells))
    modes = []
    for method, series in cols:
        try:
            modes.append(str(report.selection_mode(scenario, n, method, series)))
        except Exception:
            modes.append("-")
    print("mode " + "".join(f"{v:>{width}}" for v in modes))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--reps", type=int, default=1000)
    ap.add_argument("--seed", type=int, default=1729)
    ap.add_argument("--scenario", choices=("A", "B", "both"), default="both")
    ap.add_argument("--n-list", default="100,250")
    ap.add_argument("--m-list", default="1,2,3,4,5,6,7,8")
    ap.add_argument("--alpha", type=float, default=0.05)
    ap.add_argument("--out", default="mc_full", help="output path prefix")
    args = ap.parse_args()

    scenarios = ("A", "B") if args.scenario == "both" else (args.scenario,)
    t0 = time.monotonic()
    report = run_monte_carlo(
        scenarios=scenarios,
        n_list=parse_int_list(args.n_list),
        m_list=parse_int_list(args.m_list),
        reps=args.reps,
        base_seed=args.seed,
        alpha=args.alpha,
    )
    elapsed = time.monotonic() - t0

    doc = {"command": "mc", "version": __version__}
    doc.update(report.to_dict())
    json_path = f"{args.out}.json"
    write_json(json_path, doc)

    summary = report.hr_summary()
    header = list(summary[0].keys())
    csv_path = f"{args.out}.hr_summary.csv"
    write_table_csv(csv_path, header, [[r[k] for k in header] for r in summary])

    print(f"{len(report.hr_rows)} HR rows, {len(report.selection_rows)} "
          f"selection rows in {elapsed:.1f}s")
    print(f"wrote {json_path}")
    print(f"wrote {csv_path}")
    for scenario in report.scenarios:
        for n in report.n_list:
            print_cell(report, scenario, n)


if __name__ == "__main__":
    main()
