"""Every ivssa name the benchmark tracer patches must exist.

``bench/tracing.py`` wraps each (module, qualified name) of its ``SPANS``
table, plus ``ivssa.parallel.run_tasks`` (whose counter also calls
``worker_count``), and ``Tracer.install`` stops with a ``KeyError`` when one
of them is gone.  These checks name a missing one in seconds, instead of
leaving it to ``bench/run.py --selftest``.
"""

import importlib
import importlib.util
import os

import pytest

import ivssa.parallel

TRACING = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir, "bench", "tracing.py"
)


def _load_spans() -> dict:
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPANS


SPANS = _load_spans()


@pytest.mark.parametrize(
    "module, qualname", sorted(SPANS), ids=[f"{m}.{q}" for m, q in sorted(SPANS)]
)
def test_traced_name_resolves(module, qualname):
    # looked up the way Tracer.install does: a method in its class's own
    # __dict__, a function in its defining module's __dict__
    owner = importlib.import_module(module)
    owner_name, _, attr = qualname.rpartition(".")
    if owner_name:
        owner = getattr(owner, owner_name)
    assert callable(vars(owner).get(attr)), f"{module}.{qualname} is gone"


@pytest.mark.parametrize("name", ["run_tasks", "worker_count"])
def test_parallel_helper_resolves(name):
    assert callable(vars(ivssa.parallel).get(name)), f"ivssa.parallel.{name} is gone"
