"""The task loop behind the grid search and the Monte Carlo study runs
every task in order, in this process."""

from __future__ import annotations

import os

import ivssa.parallel as parallel


def square_and_pid(x):
    return x * x, os.getpid()


class TestWorkerCount:
    def test_serial_paths_start_no_pool(self):
        assert parallel.worker_count() == 1
        results = parallel.run_tasks(square_and_pid, [3, 1, 2])
        assert results == [(9, os.getpid()), (1, os.getpid()), (4, os.getpid())]
        assert parallel.run_tasks(square_and_pid, []) == []
