"""Order statistics used in the benchmark report."""

from __future__ import annotations

import statistics

# Candidate percentiles in hundredths of a percent, highest first: 99.99,
# 99.9, then every whole percentile from 99 down to 1.
_LADDER = (9999, 9990) + tuple(range(9900, 0, -100))

# Samples a tail percentile must leave beyond it.
MIN_BEYOND = 10


def tail_percentile(samples: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least MIN_BEYOND samples beyond it.

    Uses the nearest-rank definition: with the n samples sorted, percentile
    p is the sample at index ceil(p * n / 100) - 1, and the samples beyond
    it are those at later indices. Returns (p, value), or None when there
    are too few samples for any percentile to qualify.
    """
    n = len(samples)
    ordered = sorted(samples)
    for q in _LADDER:
        index = -(-q * n // 10000) - 1
        if n - 1 - index >= MIN_BEYOND:
            return q / 100, ordered[index]
    return None


def fail_ratio(attempted: int, failed: int) -> float:
    """Failed ops as a share of attempted ops."""
    if attempted < 1:
        raise ValueError("no op was attempted")
    return failed / attempted


def quartile_spread(values: list[float]) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
