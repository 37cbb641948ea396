"""Shared random-data builders and subprocess helpers for the test suite."""

from __future__ import annotations

import math
import os

import numpy as np

import ivssa
from ivssa import IntervalSeries, PairMatrix, decompose, select_from_decomposition


def child_env() -> dict[str, str]:
    """Environment for a child Python that imports the same ivssa as this one.

    The directory holding the imported package goes first on PYTHONPATH,
    as an absolute path, so the child finds it from any working directory
    whether ivssa comes from a source checkout or an installed package.
    """
    root = os.path.dirname(os.path.dirname(os.path.abspath(ivssa.__file__)))
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = root + os.pathsep + inherited if inherited else root
    return env


def make_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def random_series(rng: np.random.Generator, n: int, scale: float = 1.0) -> IntervalSeries:
    """Non-degenerate interval series with varied centers and widths."""
    mid = scale * rng.standard_normal(n) + rng.uniform(-3, 3)
    width = rng.uniform(0.05, 2.0, size=n) * scale
    return IntervalSeries(mid - width / 2, mid + width / 2)


def random_degenerate_series(rng: np.random.Generator, n: int) -> IntervalSeries:
    vals = rng.standard_normal(n) + rng.uniform(-2, 2)
    return IntervalSeries(vals, vals.copy())


def random_pair_matrix(rng: np.random.Generator, l: int, k: int) -> PairMatrix:
    return PairMatrix(rng.standard_normal((l, k)), rng.standard_normal((l, k)))


def structured_series(n: int, seed: int = 0, noise: float = 0.1) -> IntervalSeries:
    """Trend plus seasonal cycle with noisy endpoints; lo < hi throughout."""
    rng = make_rng(seed)
    t = np.arange(1, n + 1)
    mid = 10 + 0.05 * t + np.sin(2 * np.pi * t / 12)
    lo = mid - 1 + noise * rng.standard_normal(n)
    hi = mid + 1 + noise * rng.standard_normal(n)
    return IntervalSeries(np.minimum(lo, hi), np.maximum(lo, hi))


def long_shaped(n: int, seed: int) -> IntervalSeries:
    """Trend, one cycle of period 100 and white endpoint noise: a clear
    spectral gap after the third component."""
    rng = make_rng(seed)
    t = np.arange(n)
    mid = (
        20.0
        + 0.004 * t
        + 3.0 * np.sin(2 * np.pi * t / 100.0 + rng.uniform(0.0, 2 * np.pi))
        + rng.normal(0.0, 0.5, n)
    )
    half = 1.0 + rng.uniform(0.0, 0.2, n)
    return IntervalSeries(mid - half, mid + half)


def weekly_shaped(n: int, seed: int) -> IntervalSeries:
    """Weekly low/high prices, a log-random walk with drift and an annual
    swing: a gap after the level, then a slowly falling spectrum."""
    rng = make_rng(seed)
    t = np.arange(n)
    mid = np.exp(
        math.log(850.0)
        + 0.004 * t
        + 0.06 * np.sin(2 * np.pi * t / 52.0)
        + np.cumsum(rng.normal(0.0, 0.025, n))
    )
    half = mid * (0.01 + rng.uniform(0.0, 0.035, n))
    return IntervalSeries(mid - half, mid + half)


def decompose_and_select(y: IntervalSeries, window: int | None = None, **kwargs):
    """The whiteness selection of one series' own univariate fit."""
    return select_from_decomposition(decompose(y, window), y, **kwargs)


def assert_compares_by_identity(make) -> None:
    """Two results built from the same input are distinct, hashable objects:
    ``==`` is identity, never an elementwise comparison of array fields."""
    a, b = make(), make()
    assert a == a and a != b
    assert len({a, b}) == 2
