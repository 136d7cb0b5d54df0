"""Order statistics for the benchmark: median, percentiles and the tail rule.

A tail percentile is only worth reporting when enough samples lie beyond it
to pin it down.  :func:`tail` applies that rule: it returns the highest
percentile of a fixed ladder that has at least :data:`MIN_BEYOND` samples
strictly above its rank, so a short run reports a lower percentile instead
of a single outlier dressed up as a p99.  :func:`fixed_tail` is what the
benchmark reports: the rung is fixed by the number of operations a run
guarantees, not by how many happened to fit in its window.
"""

from __future__ import annotations

import math
from typing import Sequence

#: Samples that must lie beyond a percentile before it is reported.
MIN_BEYOND = 10

#: Candidate tail percentiles, highest first.
LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile of ``values`` (``pct`` in 0..100)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * pct / 100.0
    low = math.floor(rank)
    high = math.ceil(rank)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def samples_beyond(count: int, pct: float) -> int:
    """How many of ``count`` samples lie strictly above the ``pct`` rank."""
    return count - 1 - math.floor((count - 1) * pct / 100.0)


def rung(count: int) -> float | None:
    """The highest ladder percentile with at least :data:`MIN_BEYOND` of
    ``count`` samples beyond it, or ``None`` when no rung has."""
    for pct in LADDER:
        if samples_beyond(count, pct) >= MIN_BEYOND:
            return pct
    return None


def tail(values: Sequence[float]) -> tuple[float, float] | None:
    """``(percentile, value)`` at the :func:`rung` that ``len(values)``
    samples earn, or ``None`` when they earn none."""
    pct = rung(len(values))
    return None if pct is None else (pct, percentile(values, pct))


def fixed_tail(values: Sequence[float], min_count: int) -> tuple[float, float]:
    """``(percentile, value)`` at the rung ``min_count`` samples earn.

    A run that guarantees ``min_count`` operations reports this same
    percentile however many more fit in its window, so a faster program or
    a fast phase of the host never moves the metric to another percentile.
    """
    if len(values) < min_count:
        raise ValueError(f"{len(values)} samples, fewer than the {min_count} guaranteed")
    pct = rung(min_count)
    if pct is None:
        raise ValueError(f"{min_count} samples earn no tail percentile")
    return pct, percentile(values, pct)
