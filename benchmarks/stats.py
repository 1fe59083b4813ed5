"""Percentiles and the sample-count rule for reported timings."""

from __future__ import annotations

import math

# A tail percentile is meaningful when at least this many samples lie
# beyond it.
MIN_BEYOND = 10
TAIL_CANDIDATES = (99.9, 99.0, 90.0)


def percentile(values, q: float) -> float:
    """q-th percentile (0 <= q <= 100) by linear interpolation between
    order statistics, as numpy's default method."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of no samples")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile {q} outside [0, 100]")
    pos = (len(data) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def samples_beyond(n: int, q: float) -> int:
    """Number of the n samples that lie strictly above the q-th percentile
    position."""
    return n - 1 - math.floor((n - 1) * q / 100.0) if n else 0


def tail_percentile(n: int):
    """Highest of TAIL_CANDIDATES with at least MIN_BEYOND of n samples
    beyond it, or None when even the 90th percentile rests on fewer."""
    for q in TAIL_CANDIDATES:
        if samples_beyond(n, q) >= MIN_BEYOND:
            return q
    return None
