"""Summary statistics the benchmark reports."""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence, Tuple

import numpy as np

__all__ = ["median", "mid_mean", "tail_percentile"]

# A tail percentile is only reported with at least this many samples
# beyond it, so one outlier cannot set it on its own.
MIN_BEYOND = 10


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def mid_mean(values: Sequence[float]) -> float:
    """Mean of the values between the first and third quartile: a
    throughput that a few stalled (or lucky) samples do not move."""
    if not values:
        return 0.0
    lo, hi = np.percentile(values, [25, 75])
    return float(np.mean([v for v in values if lo <= v <= hi]))


def tail_percentile(
    values: Sequence[float], want: float = 99.0, beyond: int = MIN_BEYOND
) -> Optional[Tuple[float, float, int]]:
    """``(percentile, value, n)`` for the highest percentile up to
    ``want`` that leaves at least ``beyond`` samples above it.

    Nearest-rank: the value at 1-based rank ``r`` of the sorted samples
    is the ``100 * r / n`` percentile (``want`` itself at rank
    ``ceil(want * n / 100)``) and has ``n - r`` samples beyond it.
    ``None`` when there are not more than ``beyond`` samples.
    """
    n = len(values)
    wanted = math.ceil(want * n / 100.0)
    rank = min(wanted, n - beyond)
    if rank < 1:
        return None
    pct = want if rank == wanted else 100.0 * rank / n
    return pct, float(sorted(values)[rank - 1]), n

