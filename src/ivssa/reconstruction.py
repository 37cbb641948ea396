"""Grouping, interval trendlines, and elementary reconstructed components.

Every component is diagonal-averaged at the pair level, where antidiagonal
means are the C-norm-closest Hankel projection, by
``Decomposition.component_channels``; pairs are mapped to intervals through
``phi_arrays`` only when a series is emitted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import IntervalSeries, ParameterError, _integer, phi_arrays
from .decomposition import Decomposition, _component_index


@dataclass(frozen=True)
class Grouping:
    """Set of retained component indices (1-based, duplicate-free)."""

    indices: tuple[int, ...]

    def __post_init__(self):
        idx = tuple(_integer(i, "a component index", 1) for i in self.indices)
        if len(idx) == 0:
            raise ParameterError("grouping must retain at least one component")
        if len(set(idx)) != len(idx):
            raise ParameterError(f"grouping has duplicate indices: {idx}")
        object.__setattr__(self, "indices", idx)

    @classmethod
    def leading(cls, m: int) -> "Grouping":
        """The prefix grouping {1, ..., m}."""
        return cls(tuple(range(1, _integer(m, "m", 1) + 1)))


def trendline(
    dec: Decomposition, groupings: Sequence[Grouping] | Grouping
) -> list[IntervalSeries]:
    """Interval trendline per series; one grouping per series (a single
    grouping is applied to every series).  Components are summed in
    grouping order, the same way every prefix in the package is summed."""
    if isinstance(groupings, Grouping):
        groupings = [groupings] * dec.n_series
    if len(groupings) != dec.n_series:
        raise ParameterError(
            f"expected {dec.n_series} groupings, got {len(groupings)}"
        )
    out = []
    for s, g in enumerate(groupings, start=1):
        ca, cb = dec.component_channels(g.indices, s)
        lo, hi = phi_arrays(np.cumsum(ca, axis=0)[-1], np.cumsum(cb, axis=0)[-1])
        out.append(IntervalSeries(lo, hi))
    return out


@dataclass(frozen=True, eq=False)
class ErcSet:
    """Elementary reconstructed components.

    ``components[i][s]`` is the interval series of component i+1 for series
    s+1; ``pairs[i][s]`` keeps the endpoint channels (a, b) before
    ``phi_arrays``, whose componentwise sums are exactly additive.
    """

    components: tuple[tuple[IntervalSeries, ...], ...]
    pairs: tuple[tuple[tuple[np.ndarray, np.ndarray], ...], ...]


def reconstruct_ercs(dec: Decomposition, count: int) -> ErcSet:
    """Diagonal-average each of the first ``count`` components, per series
    for stacked decompositions."""
    count = _component_index(dec.eig, count)
    channels = [
        dec.component_channels(range(1, count + 1), s)
        for s in range(1, dec.n_series + 1)
    ]
    for ca, cb in channels:
        ca.flags.writeable = False
        cb.flags.writeable = False
    pairs = tuple(
        tuple((ca[i], cb[i]) for ca, cb in channels) for i in range(count)
    )
    comps = tuple(
        tuple(IntervalSeries(*phi_arrays(ga, gb)) for ga, gb in per_series)
        for per_series in pairs
    )
    return ErcSet(components=comps, pairs=pairs)
