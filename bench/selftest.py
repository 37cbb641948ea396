"""The benchmark's own test: short runs of every workload, in about a minute.

For each workload it makes two short traced runs and one short timed run
(seed 0, which has a stored reference) and requires that

* every output check passes, including the bit-for-bit comparison of the
  traced outputs with the untraced outputs of the same requests;
* the per-layer counts of the two traced runs are identical;
* the per-layer self times plus ``bench.unattributed_s`` add up to
  ``bench.traced_wall_s``;
* every end-to-end metric is positive;
* ``BENCHMARK.json`` lists exactly the metrics the runs print, with their units.

Run it as ``python3 bench/run.py --selftest``.
"""

from __future__ import annotations

import json
import math
import os

from tracing import LAYER_METRICS, SELF_TIME_METRICS

SEED = 0
TRACE_SECONDS = 2.0
TIMED_SECONDS = 1.0

COUNTS = [k for k, unit in LAYER_METRICS.items() if unit != "s"]


def _check_workload(run_workload, workload: str) -> list[str]:
    problems = []
    first, ok_first = run_workload(workload, SEED, TRACE_SECONDS, True)
    second, ok_second = run_workload(workload, SEED, TRACE_SECONDS, True)
    timed, ok_timed = run_workload(workload, SEED, TIMED_SECONDS, False)
    if not (ok_first and ok_second and ok_timed):
        problems.append("an output check failed (see CHECK FAILED above)")
    a, b = first["metrics"], second["metrics"]
    for name in COUNTS:
        if a[name]["value"] != b[name]["value"]:
            problems.append(f"{name} differs between traced runs: {a[name]['value']} vs {b[name]['value']}")
    for m in (a, b):
        total = math.fsum(m[name]["value"] for name in SELF_TIME_METRICS)
        wall = m["bench.traced_wall_s"]["value"]
        if abs(total - wall) > 1e-9 * max(wall, 1.0) * len(SELF_TIME_METRICS):
            problems.append(f"self times add up to {total!r} s, traced wall time is {wall!r} s")
    for name, m in timed["metrics"].items():
        if not m["value"] > 0:
            problems.append(f"end-to-end metric {name} is {m['value']}")
    return problems


def _check_declared(root: str, end_to_end: dict) -> list[str]:
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []
    for key, printed in (("end_to_end", end_to_end), ("per_layer", LAYER_METRICS)):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        if declared != printed:
            problems.append(f"BENCHMARK.json {key} {declared} != printed {printed}")
    return problems


def selftest(run_workload, workloads, root: str, end_to_end: dict) -> int:
    problems = _check_declared(root, end_to_end)
    failed = bool(problems)
    report = [f"selftest BENCHMARK.json: {'FAIL' if problems else 'ok'}"]
    report += [f"  {p}" for p in problems]
    for workload in workloads:
        problems = _check_workload(run_workload, workload)
        failed = failed or bool(problems)
        report.append(f"selftest {workload}: {'FAIL' if problems else 'ok'}")
        report += [f"  {p}" for p in problems]
    print("\n".join(report))
    return 1 if failed else 0
