"""Order statistics for the benchmark's latency samples.

Percentiles use the nearest-rank rule on integer percents, so the rank is
exact integer arithmetic (0.9 * 100 is not exactly 90 in floating point).
"""

from __future__ import annotations

from typing import Sequence

#: A percentile counts as a tail latency only when at least this many
#: samples lie beyond it.
TAIL_SAMPLES = 10


def rank(n: int, pct: int) -> int:
    """1-based nearest rank of the pct-th percentile among n samples."""
    if n < 1:
        raise ValueError("need at least one sample")
    if not 0 < pct < 100:
        raise ValueError(f"percent must lie in (0, 100), got {pct}")
    return max(1, -(-pct * n // 100))


def percentile(samples: Sequence[float], pct: int) -> float:
    xs = sorted(samples)
    return xs[rank(len(xs), pct) - 1]


def beyond(n: int, pct: int) -> int:
    """Samples that lie beyond the pct-th percentile of n samples."""
    return n - rank(n, pct)


def tail_supported(n: int, pct: int) -> bool:
    """Whether n samples put at least TAIL_SAMPLES beyond the percentile,
    e.g. the 90th percentile needs n >= 100."""
    return beyond(n, pct) >= TAIL_SAMPLES
