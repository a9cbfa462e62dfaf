"""Percentiles over large pooled samples, and run-to-run spread."""

from __future__ import annotations

import statistics
from collections import Counter
from typing import Iterable, List, Sequence


def quantiles(counts: Counter, qs: Sequence[float]) -> List[float]:
    """Quantiles ``qs`` (in [0, 1]) of a sample stored as value counts.

    Linear interpolation between order statistics (NumPy's default rule),
    so a pooled sample of millions of integer nanosecond readings costs one
    ``Counter`` instead of one sorted list.
    """
    total = sum(counts.values())
    if total == 0:
        raise ValueError("no samples")
    items = sorted(counts.items())
    results = []
    for q in qs:
        position = q * (total - 1)
        lower = int(position)
        fraction = position - lower
        results.append(_interpolate(items, lower, fraction))
    return results


def _interpolate(items, lower: int, fraction: float) -> float:
    """Value at rank ``lower + fraction`` of the sorted (value, count) list."""
    seen = 0
    for index, (value, count) in enumerate(items):
        if lower < seen + count:
            if fraction == 0 or lower + 1 < seen + count:
                return float(value)
            following = items[index + 1][0] if index + 1 < len(items) else value
            return value + fraction * (following - value)
        seen += count
    return float(items[-1][0])


def median(values: Iterable[float]) -> float:
    """Median of ``values``."""
    return statistics.median(list(values))


def relative_iqr(values: Sequence[float]) -> float:
    """Distance between the first and third quartile over the median.

    The spread the benchmark gates on, computed exactly as
    ``statistics.quantiles(values, n=4)`` gives the quartiles. A single
    value has no spread.
    """
    values = list(values)
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    centre = statistics.median(values)
    return (q3 - q1) / abs(centre) if centre else float("inf")
