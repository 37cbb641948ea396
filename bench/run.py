"""Benchmark of ivssa: four closed-loop workloads, end-to-end and per-layer metrics.

Usage (from the root of a source checkout):

    python3 bench/run.py --workload mc --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20
    python3 bench/run.py --selftest

Each run starts fresh worker processes with ``IVSSA_THREADS`` removed from
their environment, so ``run_tasks`` takes its serial path; OpenBLAS keeps its
default thread count, which the run records.  Set-up is measured in
``SETUPS`` fresh processes and reported as their median.

``--trace 0`` runs the timed closed loop and prints the end-to-end metrics;
``--trace 1`` runs a fixed set of requests untraced and then traced, and
prints the per-layer metrics.  Both check the outputs against the reference
stored in ``bench/reference`` for the seed, and against invariants that hold
for every seed.  The last line of standard output is one JSON object; the
exit code is 0 only when every check passed.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKLOADS = ("mc", "oos", "cli-weekly", "long")

#: Set-up is measured in this many fresh processes per run (probes plus the
#: timed process) and reported as the median.
SETUPS = 5

#: Chunks the timed loop is cut into; throughput and CPU per request are the
#: medians over chunks, so one burst of outside load moves them little.
CHUNKS = 5

#: Latency tail: the request time with this many samples above it.
TAIL_BEYOND = 10

#: A whole run, set-up included, stays under this many seconds.
DEADLINE_S = 170

END_TO_END = {
    "throughput_ops_s": "ops/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "cpu_s_per_op": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "ok_ratio": "ratio",
}


def _spawn(workload: str, seed: int, mode: str, seconds: float, deadline: float) -> tuple[dict, float]:
    """Run one worker process to completion; returns (result, set-up seconds)."""
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=os.path.join(ROOT, ".bench_work"))
    result_path = os.path.join(workdir, "result.json")
    env = {k: v for k, v in os.environ.items() if k != "IVSSA_THREADS"}
    cmd = [
        sys.executable,
        os.path.join(BENCH, "worker.py"),
        ROOT, workload, str(seed), mode, repr(seconds), workdir, result_path,
    ]
    try:
        started = time.monotonic()
        proc = subprocess.run(
            cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=max(1.0, deadline - time.monotonic()),
        )
        if proc.returncode != 0:
            raise RuntimeError(
                f"{workload}: worker ({mode}) exited with {proc.returncode}:\n{proc.stderr}"
            )
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return result, result["ready"] - started


def _end_to_end(res: dict, setups: list[float]) -> tuple[dict, dict]:
    """End-to-end metrics of one timed run, and notes for the report."""
    lat = sorted(res["latencies"])
    n = len(lat)
    tail_at = max(0, n - 1 - TAIL_BEYOND)
    chunk_rates, chunk_cpu = [], []
    size = n // CHUNKS
    for c in range(CHUNKS):
        lo, hi = c * size, (c + 1) * size if c < CHUNKS - 1 else n
        t_lo = res["ends"][lo - 1] if lo else 0.0
        c_lo = res["cpu"][lo - 1] if lo else 0.0
        chunk_rates.append((hi - lo) / (res["ends"][hi - 1] - t_lo))
        chunk_cpu.append((res["cpu"][hi - 1] - c_lo) / (hi - lo))
    values = {
        "throughput_ops_s": statistics.median(chunk_rates),
        "latency_p50_s": statistics.median(lat),
        "latency_tail_s": lat[tail_at],
        "cpu_s_per_op": statistics.median(chunk_cpu),
        "peak_rss_mb": res["peak_rss_mb"],
        "setup_s": statistics.median(setups),
        "ok_ratio": 1.0 - res["unit_failed"] / res["unit_attempted"],
    }
    notes = {
        "requests": n,
        "tail_percentile": 100.0 * (tail_at + 1) / n,
        "tail_samples_beyond": n - 1 - tail_at,
        "setups": setups,
        "fail_ratio": res["unit_failed"] / res["unit_attempted"],
    }
    return {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}, notes


def _reference_errors(workload: str, seed: int, summaries: list) -> tuple[list[str], str]:
    from workloads import compare

    path = os.path.join(BENCH, "reference", f"{workload}.json")
    try:
        with open(path, encoding="utf-8") as fh:
            ref = json.load(fh)["seeds"].get(str(seed))
    except FileNotFoundError:
        ref = None
    if ref is None:
        return [], f"no stored reference for seed {seed}; invariant checks only"
    errors = []
    for i, (r, got) in enumerate(zip(ref, summaries), start=1):
        errors += [f"request {i}: {e}" for e in compare(r, json.loads(json.dumps(got)))]
    return errors, f"reference for seed {seed}: {len(summaries)} requests compared"


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, bool]:
    """One run; prints the report and returns (result line, all checks passed)."""
    deadline = time.monotonic() + DEADLINE_S
    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    if trace:
        res, _ = _spawn(workload, seed, "trace", seconds, deadline)
        metrics = res["layers"]
        attempted = int(metrics["bench.requests"]["value"])
        notes = {"spans_file": res["spans_file"], "span_count": res["span_count"]}
    else:
        setups = [_spawn(workload, seed, "probe", 0.0, deadline)[1] for _ in range(SETUPS - 1)]
        res, setup = _spawn(workload, seed, "timed", seconds, deadline)
        metrics, notes = _end_to_end(res, setups + [setup])
        attempted = notes["requests"]
    ref_errors, ref_note = _reference_errors(workload, seed, res["summaries"])
    errors = res["errors"] + ref_errors
    print(f"workload {workload}  seed {seed}  mode {'trace' if trace else 'timed'}  "
          f"(closed loop, 1 client)")
    env = dict(res["environment"], ivssa_threads_in_caller=os.environ.get("IVSSA_THREADS"))
    print("environment " + json.dumps(env, sort_keys=True))
    for k, v in notes.items():
        print(f"  {k}: {v}")
    print(f"  {workload} fail_ratio counts {res['unit_failed']} failed of "
          f"{res['unit_attempted']} {res['fail_unit']}")
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    print(f"  check: {ref_note}")
    for e in errors:
        print(f"CHECK FAILED {workload}: {e}", file=sys.stderr)
    line = {"correct": not errors, "attempted": attempted, "failed": res["failed_requests"],
            "metrics": metrics}
    return line, not errors


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="short traced and untraced runs of every workload")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "ivssa", "__init__.py")):
        print(f"bench: no ivssa source tree at {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    if args.selftest:
        from selftest import selftest

        return selftest(run_workload, WORKLOADS, ROOT, END_TO_END)
    ok = True
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        try:
            line, passed = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"bench: {exc}", file=sys.stderr)
            return 1
        ok = ok and passed
        print(json.dumps(line))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
