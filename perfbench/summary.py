"""Timing summaries: medians, quartile spread, and the tail-percentile rule.

A timing is reported as its median plus the highest percentile that still
has at least :data:`MIN_BEYOND` samples beyond it, with the sample count.
With fewer samples no tail percentile is reported: a "p99" over 50
samples would be the single slowest one.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Optional, Sequence

#: Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 90.0)

#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10


def tail_percentile(samples: int) -> Optional[float]:
    """Highest percentile in :data:`TAIL_PERCENTILES` with enough samples beyond."""
    for percentile in TAIL_PERCENTILES:
        # Round before flooring: 1000 * (100 - 99.9) / 100 is 0.0999...e2.
        beyond = samples - math.ceil(round(samples * percentile / 100.0, 9))
        if beyond >= MIN_BEYOND:
            return percentile
    return None


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest value with ``pct``% at or below."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(round(len(ordered) * pct / 100.0, 9)))
    return ordered[rank - 1]


def timing_summary(values: Sequence[float]) -> Dict[str, float]:
    """``{"n", "p50"}`` plus ``"p<tail>"`` when the sample count allows one."""
    summary: Dict[str, float] = {
        "n": len(values),
        "p50": statistics.median(values),
    }
    tail = tail_percentile(len(values))
    if tail is not None:
        summary["p%g" % tail] = percentile(values, tail)
    return summary


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, as ``statistics.quantiles(values, n=4)`` gives them."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median
