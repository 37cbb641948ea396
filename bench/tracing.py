"""Spans around calls into ivssa's public functions, recorded from outside.

``Tracer.install`` replaces each traced function in every ``ivssa`` module
namespace that holds it (the defining module, the package, and each module
that imported it by name), and wraps ``IntervalSeries.__post_init__`` and
``PairMatrix.__post_init__``.  ``uninstall`` puts the originals back.  No
file of the program is changed.

A span records its parent, its name and its start and end in integer
nanoseconds.  Each request is itself a root span, ``bench.request``.  A
span's self time is its duration minus the durations of its direct
children; spans nest strictly because the program runs single-threaded
under the benchmark, so the self times of all spans of a request add up to
the request's wall time exactly.  Self time of a ``bench.request`` span is
time no layer span covers: benchmark glue and private helpers called from
the request itself.

Counts are read from arguments and return values.  Three of them are
computed from array shapes rather than measured:

* ``decomposition.covariance_flops``: 8 * rows(x) * rows(y) * cols per
  ``pair_cross_covariance`` call (four real GEMMs, 2 flops per multiply-add);
* ``decomposition.eigh_dim3``: l**3 per ``eigen_sym`` call on an l x l matrix;
* ``embedding.bytes_computed``: 16 bytes per pair entry of each trajectory
  matrix built, and of each stacked matrix copied together from several.
"""

from __future__ import annotations

import gzip
import json
import os
import sys
from time import perf_counter_ns

REQUEST = "bench.request"

#: Per-layer metrics with their units, in report order.
LAYER_METRICS = {
    "core.validate_s": "s",
    "core.objects": "count",
    "embedding.trajectory_s": "s",
    "embedding.bytes_computed": "B",
    "decomposition.fits": "count",
    "decomposition.covariance_s": "s",
    "decomposition.covariance_flops": "flop",
    "decomposition.eigh_s": "s",
    "decomposition.eigh_dim3": "count",
    "decomposition.project_s": "s",
    "decomposition.rank_sum": "count",
    "reconstruction.ercs_s": "s",
    "reconstruction.trendline_s": "s",
    "spectral.select_self_s": "s",
    "spectral.periodogram_s": "s",
    "spectral.scan_steps": "count",
    "spectral.unconverged": "count",
    "spectral.clipped_ordinates": "count",
    "spectral.ordinates": "count",
    "forecasting.oos_self_s": "s",
    "forecasting.recurrence_s": "s",
    "forecasting.forecast_s": "s",
    "forecasting.forecasts": "count",
    "forecasting.cells": "count",
    "forecasting.cells_failed": "count",
    "simulation.simulate_s": "s",
    "simulation.self_s": "s",
    "simulation.rows": "count",
    "simulation.rows_failed": "count",
    "parallel.tasks": "count",
    "parallel.workers": "count",
    "io.read_csv_s": "s",
    "io.rows_read": "count",
    "io.json_encode_s": "s",
    "io.write_s": "s",
    "io.bytes_written": "B",
    "cli.self_s": "s",
    "cli.import_s": "s",
    "bench.requests": "count",
    "bench.traced_wall_s": "s",
    "bench.unattributed_s": "s",
    "trace.overhead_s_per_op": "s",
}


def _count_covariance(c, args, kwargs, result):
    x, y = args[0], args[1]
    c["decomposition.covariance_flops"] += 8 * x.n_rows * y.n_rows * x.n_cols


def _count_eigh(c, args, kwargs, result):
    c["decomposition.eigh_dim3"] += result.vectors.shape[0] ** 3


def _count_trajectory(c, args, kwargs, result):
    c["embedding.bytes_computed"] += 16 * result.a.size


def _count_stack(c, args, kwargs, result):
    if len(args[0]) > 1:  # a single series is returned as its own trajectory
        c["embedding.bytes_computed"] += 16 * result.a.size


def _count_fit(c, args, kwargs, result):
    c["decomposition.fits"] += 1
    c["decomposition.rank_sum"] += result.d


def _count_stacked_fit(c, args, kwargs, result):
    if result.mode.value != "univariate":  # else ``decompose`` counted it
        _count_fit(c, args, kwargs, result)


def _count_selection(c, args, kwargs, result):
    c["spectral.scan_steps"] += len(result.ks_trace)
    c["spectral.unconverged"] += int(not result.converged)


def _count_periodogram(c, args, kwargs, result):
    c["spectral.ordinates"] += result.j_count
    c["spectral.clipped_ordinates"] += result.n_clipped


def _count_oos(c, args, kwargs, result):
    c["forecasting.cells"] += len(result.l_grid) * len(result.m_grid)
    c["forecasting.cells_failed"] += len(result.failed)


def _count_forecast(c, args, kwargs, result):
    c["forecasting.forecasts"] += 1


def _count_mc(c, args, kwargs, result):
    c["simulation.rows"] += len(result.hr_rows) + len(result.selection_rows)
    c["simulation.rows_failed"] += sum(
        r.hr_x is None or r.hr_y is None for r in result.hr_rows
    ) + sum(r.m is None for r in result.selection_rows)


def _count_read(c, args, kwargs, result):
    c["io.rows_read"] += len(result[0])


def _count_write(c, args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    c["io.bytes_written"] += os.path.getsize(path)


def _count_object(c, args, kwargs, result):
    c["core.objects"] += 1


#: Traced callable (module, qualified name) -> (per-layer metric that takes
#: the span's self time, counter fed with its arguments and result).
SPANS = {
    ("ivssa.core", "IntervalSeries.__post_init__"): ("core.validate_s", _count_object),
    ("ivssa.core", "PairMatrix.__post_init__"): ("core.validate_s", _count_object),
    ("ivssa.embedding", "trajectory"): ("embedding.trajectory_s", _count_trajectory),
    ("ivssa.embedding", "stack"): ("embedding.trajectory_s", _count_stack),
    ("ivssa.decomposition", "pair_cross_covariance"): ("decomposition.covariance_s", _count_covariance),
    ("ivssa.decomposition", "symbolic_covariance"): ("decomposition.covariance_s", None),
    ("ivssa.decomposition", "stacked_covariance"): ("decomposition.covariance_s", None),
    ("ivssa.decomposition", "eigen_sym"): ("decomposition.eigh_s", _count_eigh),
    ("ivssa.decomposition", "decompose"): ("decomposition.project_s", _count_fit),
    ("ivssa.decomposition", "decompose_stacked"): ("decomposition.project_s", _count_stacked_fit),
    ("ivssa.reconstruction", "reconstruct_ercs"): ("reconstruction.ercs_s", None),
    ("ivssa.reconstruction", "trendline"): ("reconstruction.trendline_s", None),
    ("ivssa.spectral", "select_from_decomposition"): ("spectral.select_self_s", _count_selection),
    ("ivssa.spectral", "periodogram"): ("spectral.periodogram_s", _count_periodogram),
    ("ivssa.forecasting", "select_params_oos"): ("forecasting.oos_self_s", _count_oos),
    ("ivssa.forecasting", "recurrence_coefficients"): ("forecasting.recurrence_s", None),
    ("ivssa.forecasting", "forecast_recurrent"): ("forecasting.forecast_s", _count_forecast),
    ("ivssa.simulation", "simulate_scenario"): ("simulation.simulate_s", None),
    ("ivssa.simulation", "run_monte_carlo"): ("simulation.self_s", _count_mc),
    ("ivssa.io", "read_csv"): ("io.read_csv_s", _count_read),
    ("ivssa.io", "json_dumps"): ("io.json_encode_s", None),
    ("ivssa.io", "write_json"): ("io.write_s", _count_write),
    ("ivssa.io", "write_table_csv"): ("io.write_s", _count_write),
    ("ivssa.cli", "main"): ("cli.self_s", None),
}

#: Metrics that hold self times; together they add up to the traced wall time.
SELF_TIME_METRICS = {metric for metric, _ in SPANS.values()} | {"bench.unattributed_s"}


class Tracer:
    """In-memory span recorder.  Spans are (parent, name, start_ns, end_ns)."""

    def __init__(self):
        self.spans: list[tuple[int, str, int, int] | None] = []
        self.counts = {name: 0 for name, unit in LAYER_METRICS.items() if unit != "s"}
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _open(self) -> int:
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        return sid

    def _close(self, sid: int, name: str, start: int) -> None:
        end = perf_counter_ns()
        self._stack.pop()
        self.spans[sid] = (self._stack[-1] if self._stack else -1, name, start, end)

    def run_request(self, fn, *args):
        """Call fn(*args) under a root ``bench.request`` span."""
        sid = self._open()
        start = perf_counter_ns()
        try:
            return fn(*args)
        finally:
            self._close(sid, REQUEST, start)

    def _wrap(self, name: str, fn, counter):
        counts = self.counts

        def traced(*args, **kwargs):
            sid = self._open()
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid, name, start)
            if counter is not None:
                counter(counts, args, kwargs, result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def _wrap_run_tasks(self, fn):
        # Count only: in the serial path run_tasks just loops over the
        # caller's private task function, whose time belongs to the caller.
        counts = self.counts
        parallel = sys.modules["ivssa.parallel"]

        def counted(func, tasks):
            counts["parallel.tasks"] += len(tasks)
            counts["parallel.workers"] = max(
                counts["parallel.workers"], min(parallel.worker_count(), max(len(tasks), 1))
            )
            return fn(func, tasks)

        counted.__wrapped__ = fn
        return counted

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k == "ivssa" or k.startswith("ivssa.")]
        run_tasks = sys.modules["ivssa.parallel"].run_tasks
        targets = [(run_tasks, self._wrap_run_tasks(run_tasks))]
        for (mod, qualname), (_metric, counter) in SPANS.items():
            owner_name, _, attr = qualname.rpartition(".")
            if owner_name:  # a method: patch the class, which every caller shares
                owner = getattr(sys.modules[mod], owner_name)
                orig = owner.__dict__[attr]
                self._restore.append((owner, attr, orig))
                setattr(owner, attr, self._wrap(f"{mod}.{qualname}", orig, counter))
            else:
                orig = sys.modules[mod].__dict__[attr]
                targets.append((orig, self._wrap(f"{mod}.{qualname}", orig, counter)))
        for orig, wrapper in targets:
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is orig:
                        self._restore.append((module, name, orig))
                        setattr(module, name, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, orig = self._restore.pop()
            setattr(owner, attr, orig)

    def layer_metrics(self, untraced_ns: int, requests: int, import_s: float) -> dict:
        """Per-layer metrics of the spans recorded so far (totals over the run)."""
        metric_of = {f"{mod}.{qualname}": metric for (mod, qualname), (metric, _) in SPANS.items()}
        metric_of[REQUEST] = "bench.unattributed_s"
        self_ns = {metric: 0 for metric in SELF_TIME_METRICS}
        child_ns = [0] * len(self.spans)
        for parent, _name, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        wall_ns = 0
        for sid, (parent, name, start, end) in enumerate(self.spans):
            self_ns[metric_of[name]] += end - start - child_ns[sid]
            if parent < 0:
                wall_ns += end - start
        if sum(self_ns.values()) != wall_ns:
            raise AssertionError("self times do not add up to the traced wall time")
        values = dict(self.counts)
        values.update({metric: ns / 1e9 for metric, ns in self_ns.items()})
        values["cli.import_s"] = import_s
        values["bench.requests"] = requests
        values["bench.traced_wall_s"] = wall_ns / 1e9
        values["trace.overhead_s_per_op"] = (wall_ns - untraced_ns) / 1e9 / requests
        return {name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS.items()}

    def write(self, path: str, header: dict) -> None:
        """Spans as gzipped JSON lines: a header, then [id, parent, name, start_ns, end_ns]."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for sid, (parent, name, start, end) in enumerate(self.spans):
                fh.write(json.dumps([sid, parent, name, start, end]) + "\n")
