"""Percentile, sample-count and failure-ratio arithmetic of the report.

Percentiles use the nearest-rank rule on the sorted samples, so every
reported latency is one that was actually measured.
"""
from __future__ import annotations

import math


def percentile(samples, p: float) -> float:
    """Nearest-rank p-th percentile (0 < p <= 100) of a non-empty sample."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    if not 0 < p <= 100:
        raise ValueError("percentile rank must be in (0, 100]")
    ordered = sorted(samples)
    rank = math.ceil(p / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


def beyond(n: int, p: float) -> int:
    """How many of n samples lie strictly above the nearest-rank p-th
    percentile position; a tail percentile is trusted with >= 10."""
    return n - max(math.ceil(p / 100.0 * n), 1)


def failed_ratio(failed: int, attempted: int) -> float:
    """Share of attempted operations that failed a correctness check."""
    if attempted < 1:
        raise ValueError("no operation was attempted")
    if not 0 <= failed <= attempted:
        raise ValueError("failed count %d outside 0..%d" % (failed, attempted))
    return failed / attempted
