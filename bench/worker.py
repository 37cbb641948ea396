"""One workload process: set up, then run the timed loop or the traced run.

Started by ``run.py`` as a fresh interpreter with ``IVSSA_THREADS`` removed
from its environment.  Usage:

    worker.py ROOT WORKLOAD SEED MODE SECONDS WORKDIR RESULT

MODE is ``probe`` (set up, then stop), ``timed`` (closed loop for SECONDS
seconds) or ``trace`` (a fixed number of requests untraced, then the same
requests traced).  The result is written as JSON to RESULT; ``ready`` is the
CLOCK_MONOTONIC time at which set-up ended, so the parent can measure set-up
from the moment it started this process.
"""

import sys
import time

ROOT, WORKLOAD, SEED, MODE, SECONDS, WORKDIR, RESULT = sys.argv[1:8]
sys.path.insert(0, f"{ROOT}/src")

_t0 = time.perf_counter()
import ivssa  # noqa: E402,F401
import ivssa.cli  # noqa: E402,F401

IMPORT_S = time.perf_counter() - _t0

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


def environment() -> dict:
    """What the measured process ran on: versions, BLAS and its threads, cores."""
    import ctypes
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                fn = getattr(handle, symbol)
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "thread_env": {
            k: v for k, v in sorted(os.environ.items())
            if any(t in k for t in ("THREAD", "OMP_", "BLAS", "MKL_", "IVSSA"))
        },
    }


def _timed_loop(w, seconds: float) -> dict:
    """Requests 1, 2, ... until ``seconds`` have passed and at least 12 ran."""
    latencies, ends, cpu, summaries, errors = [], [], [], [], []
    failed = attempted = failed_requests = 0
    start = time.perf_counter()
    cpu_start = time.process_time()
    i = 0
    while True:
        i += 1
        t0 = time.perf_counter()
        out = w.request(i)
        t1 = time.perf_counter()
        latencies.append(t1 - t0)
        ends.append(t1 - start)
        cpu.append(time.process_time() - cpu_start)
        f, a = w.failures(out)
        failed += f
        attempted += a
        failed_requests += w.request_failed(out)
        if i <= w.checked:
            summaries.append(w.summarize(out))
        errors += [f"request {i}: {e}" for e in w.record(i, out)]
        if t1 - start >= seconds and i >= 12:
            break
    errors += w.finish()
    return {
        "latencies": latencies,
        "ends": ends,
        "cpu": cpu,
        "unit_failed": failed,
        "unit_attempted": attempted,
        "failed_requests": failed_requests,
        "summaries": summaries,
        "errors": errors,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _trace_run(w, requests: int) -> dict:
    """Each request untraced, then again traced; the outputs must match bit for bit.

    Alternating the two keeps slow drifts of the machine out of the
    overhead estimate.
    """
    tracer = Tracer()
    summaries, errors = [], []
    failed = attempted = failed_requests = 0
    untraced_ns = 0
    for i in range(1, requests + 1):
        t0 = time.perf_counter_ns()
        out = w.request(i)
        untraced_ns += time.perf_counter_ns() - t0
        untraced = w.digest(out)
        tracer.install()
        try:
            out = tracer.run_request(w.request, i)
        finally:
            tracer.uninstall()
        if w.digest(out) != untraced:
            errors.append(f"request {i}: traced output differs from the untraced output")
        f, a = w.failures(out)
        failed += f
        attempted += a
        failed_requests += w.request_failed(out)
        if i <= w.checked:
            summaries.append(w.summarize(out))
        errors += [f"request {i}: {e}" for e in w.record(i, out)]
    errors += w.finish()
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    spans_path = os.path.join(ROOT, ".bench_out", f"spans-{w.name}-seed{w.seed}.jsonl.gz")
    tracer.write(spans_path, {"workload": w.name, "seed": w.seed, "requests": requests})
    return {
        "layers": tracer.layer_metrics(untraced_ns, requests, IMPORT_S),
        "unit_failed": failed,
        "unit_attempted": attempted,
        "failed_requests": failed_requests,
        "summaries": summaries,
        "errors": errors,
        "spans_file": os.path.relpath(spans_path, ROOT),
        "span_count": len(tracer.spans),
    }


def main() -> None:
    w = workloads.WORKLOADS[WORKLOAD](int(SEED), WORKDIR)
    w.setup()
    w.request(0)  # warm-up
    result = {"ready": time.monotonic(), "import_s": IMPORT_S, "fail_unit": w.fail_unit}
    seconds = float(SECONDS)
    if MODE == "timed":
        result.update(_timed_loop(w, seconds))
    elif MODE == "trace":
        requests = max(3, round(seconds / 2 * w.nominal_rate))
        result.update(_trace_run(w, requests))
    if MODE != "probe":
        result["environment"] = environment()
    with open(RESULT, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
