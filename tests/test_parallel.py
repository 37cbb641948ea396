"""Worker-count bounds of the optional process pool, checked without
starting any process."""

from __future__ import annotations

import pytest

import ivssa.parallel as parallel
from ivssa import ParameterError


class RecordingPool:
    """Stand-in for ProcessPoolExecutor: records max_workers, maps serially."""

    created: list[int] = []

    def __init__(self, max_workers):
        RecordingPool.created.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, func, tasks, chunksize=1):
        return map(func, tasks)


@pytest.fixture
def pool(monkeypatch):
    RecordingPool.created = []
    monkeypatch.setattr(parallel, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(parallel, "available_cores", lambda: 3)
    return RecordingPool


def square(x):
    return x * x


class TestWorkerCount:
    def test_clamped_to_cores(self, pool, monkeypatch):
        monkeypatch.setenv(parallel.ENV_VAR, "500")
        assert parallel.worker_count() == 3
        assert parallel.run_tasks(square, list(range(10))) == [x * x for x in range(10)]
        assert pool.created == [3]

    def test_clamped_to_tasks(self, pool, monkeypatch):
        monkeypatch.setenv(parallel.ENV_VAR, "500")
        assert parallel.run_tasks(square, [1, 2]) == [1, 4]
        assert pool.created == [2]

    def test_below_cores_kept(self, pool, monkeypatch):
        monkeypatch.setenv(parallel.ENV_VAR, "2")
        parallel.run_tasks(square, list(range(10)))
        assert pool.created == [2]

    def test_serial_paths_start_no_pool(self, pool, monkeypatch):
        monkeypatch.delenv(parallel.ENV_VAR, raising=False)
        assert parallel.run_tasks(square, [1, 2, 3]) == [1, 4, 9]
        monkeypatch.setenv(parallel.ENV_VAR, "500")
        assert parallel.run_tasks(square, [5]) == [25]
        assert parallel.run_tasks(square, []) == []
        monkeypatch.setattr(parallel, "available_cores", lambda: 1)
        assert parallel.run_tasks(square, [1, 2, 3]) == [1, 4, 9]
        assert pool.created == []

    @pytest.mark.parametrize("raw", ["0", "-1", "many"])
    def test_invalid_setting(self, raw, monkeypatch):
        monkeypatch.setenv(parallel.ENV_VAR, raw)
        with pytest.raises(ParameterError):
            parallel.worker_count()

    def test_available_cores_positive(self):
        assert parallel.available_cores() >= 1
