"""Order statistics used by the benchmark report.

Latency tails follow one rule: report the highest percentile of a fixed
ladder that still has at least ten samples beyond it, so a tail figure is
never read off a handful of outliers.
"""

from __future__ import annotations

import math
import statistics
from fractions import Fraction

TAIL_LADDER = ("50", "90", "95", "99", "99.9", "99.99", "99.999")
MIN_BEYOND = 10


def samples_beyond(pct: str, n: int) -> int:
    """Samples ranked strictly above the nearest-rank ``pct`` percentile of ``n``."""
    return n - math.ceil(Fraction(pct) / 100 * n)


def tail_percentile(n: int, min_beyond: int = MIN_BEYOND) -> str | None:
    """Highest ladder percentile with at least ``min_beyond`` samples beyond it."""
    best = None
    for pct in TAIL_LADDER:
        if samples_beyond(pct, n) >= min_beyond:
            best = pct
    return best


def nearest_rank(values, pct: str) -> float:
    """Nearest-rank percentile: the smallest value with ``pct`` % at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    rank = max(1, math.ceil(Fraction(pct) / 100 * len(ordered)))
    return ordered[rank - 1]


def median(values) -> float:
    return float(statistics.median(values))
