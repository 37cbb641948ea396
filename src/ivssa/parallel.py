"""Optional process parallelism, capped by IVSSA_THREADS and the available cores."""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Sequence, TypeVar

from .core import ParameterError

T = TypeVar("T")
R = TypeVar("R")

ENV_VAR = "IVSSA_THREADS"


def available_cores() -> int:
    """Cores this process may run on (its affinity set where the OS has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def worker_count() -> int:
    """Worker cap from IVSSA_THREADS, at most the available cores;
    unset/empty means serial."""
    raw = os.environ.get(ENV_VAR, "").strip()
    if not raw:
        return 1
    try:
        value = int(raw)
    except ValueError:
        raise ParameterError(f"{ENV_VAR} must be an integer, got {raw!r}") from None
    if value < 1:
        raise ParameterError(f"{ENV_VAR} must be >= 1, got {value}")
    return min(value, available_cores())


def run_tasks(func: Callable[[T], R], tasks: Sequence[T]) -> list[R]:
    """Apply func over tasks, preserving order.

    Uses a process pool of at most min(worker_count(), len(tasks))
    workers; results are identical to the serial path because each task is
    independent and the reduce order is fixed by the task list.
    """
    workers = min(worker_count(), len(tasks))
    if workers <= 1:
        return [func(t) for t in tasks]
    chunk = max(1, len(tasks) // (4 * workers))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(func, tasks, chunksize=chunk))
