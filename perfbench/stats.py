"""Order statistics used by the benchmark's reports."""

from __future__ import annotations

import math

# candidate percentiles for a tail figure, highest first
_TAILS = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (numpy's default rule); 0.0 if empty."""
    xs = sorted(values)
    if not xs:
        return 0.0
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50.0)


def tail(values) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with >= 10 samples above it.

    With fewer than 20 samples no percentile qualifies; the median is
    returned then, labelled as percentile 50.
    """
    n = len(values)
    for q in _TAILS:
        if n * (100.0 - q) / 100.0 >= 10.0:
            return q, percentile(values, q)
    return 50.0, median(values)
