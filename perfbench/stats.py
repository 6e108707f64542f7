"""Order statistics for the benchmark: medians, tail percentiles, spreads."""

from __future__ import annotations

import math
import statistics

# A tail percentile is reported only with at least this many samples above it.
MIN_BEYOND = 10


def median(values) -> float:
    return float(statistics.median(values))


def nearest_rank(sorted_values, pct: int) -> float:
    """Nearest-rank percentile of an ascending list (pct in 1..100)."""
    rank = max(1, math.ceil(pct * len(sorted_values) / 100))
    return float(sorted_values[rank - 1])


def tail(values, min_beyond: int = MIN_BEYOND) -> dict:
    """The highest integer percentile with at least ``min_beyond`` samples
    above it, with the sample count and the number beyond.

    With fewer than ``2 * min_beyond`` samples no percentile at or above the
    median qualifies; the median is reported and ``beyond`` says how short
    it falls.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    pct = 50
    for p in range(99, 50, -1):
        if n - math.ceil(p * n / 100) >= min_beyond:
            pct = p
            break
    value = median(xs) if pct == 50 else nearest_rank(xs, pct)
    return {"pct": pct, "value": value, "n": n,
            "beyond": n - math.ceil(pct * n / 100)}


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, with quartiles as statistics.quantiles gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
