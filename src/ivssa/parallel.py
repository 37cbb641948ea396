"""The serial task loop that the grid search and the Monte Carlo study call.

Every task runs in order, in this process.  The benchmark tracer wraps
``run_tasks`` and calls ``worker_count`` by name, so both stay until its
next change.
"""

from __future__ import annotations

from typing import Callable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def worker_count() -> int:
    """Always 1; kept for the benchmark tracer until its next change."""
    return 1


def run_tasks(func: Callable[[T], R], tasks: Sequence[T]) -> list[R]:
    """[func(t) for t in tasks]; kept for the benchmark tracer until its next change."""
    return [func(t) for t in tasks]
