"""Summary statistics of one benchmark run: percentiles, the tail rule, RSS.

Every latency figure the benchmark prints comes from :func:`latency_summary`,
so the tail rule lives in exactly one place.
"""

from __future__ import annotations

import math
import os
import resource
import statistics
from typing import Dict, Optional, Sequence

#: The tail percentile must have at least this many samples beyond it.
TAIL_BEYOND = 10
#: The tail rule never reports a percentile above this one, so runs with very
#: different sample counts still compare the same statistic.
TAIL_CAP = 99.0


def tail_percentile(count: int) -> Optional[float]:
    """The highest percentile with at least ``TAIL_BEYOND`` samples beyond it.

    With ``count`` sorted samples, the sample at 1-based rank ``count - 10``
    has exactly ten samples above it, so its percentile rank is
    ``100 * (count - 10) / count``; the result is capped at ``TAIL_CAP``.
    Returns ``None`` when that percentile would not even reach the median
    (fewer than 20 samples): such a sample has no tail to report.

    >>> tail_percentile(19) is None
    True
    >>> tail_percentile(20)
    50.0
    >>> tail_percentile(40)
    75.0
    >>> tail_percentile(5000)
    99.0
    """
    if count < 2 * TAIL_BEYOND:
        return None
    return min(TAIL_CAP, 100.0 * (count - TAIL_BEYOND) / count)


def nearest_rank(samples: Sequence[float], percentile: float) -> float:
    """The nearest-rank percentile of ``samples`` (``0 < percentile <= 100``).

    >>> nearest_rank([4.0, 1.0, 3.0, 2.0], 50)
    2.0
    >>> nearest_rank([4.0, 1.0, 3.0, 2.0], 100)
    4.0
    """
    if not samples:
        raise ValueError("nearest_rank needs at least one sample")
    ordered = sorted(samples)
    # Rounding first keeps e.g. 30 * 66.666...% from ceiling up to rank 21.
    rank = math.ceil(round(len(ordered) * percentile / 100.0, 9))
    return ordered[max(1, min(len(ordered), rank)) - 1]


def latency_summary(latencies_ms: Sequence[float]) -> Dict[str, object]:
    """Median and tail of a latency sample, with the tail's percentile and n.

    When no percentile has ten samples beyond it, the tail is the maximum and
    ``tail_rule_met`` is false, so a reader can tell the two cases apart.
    """
    count = len(latencies_ms)
    if count == 0:
        raise ValueError("no completed operations to summarise")
    percentile = tail_percentile(count)
    rule_met = percentile is not None
    if percentile is None:
        percentile = 100.0
    return {
        "n": count,
        "p50_ms": statistics.median(latencies_ms),
        "tail_ms": nearest_rank(latencies_ms, percentile),
        "tail_percentile": round(percentile, 3),
        "tail_rule_met": rule_met,
    }


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """``VmHWM`` (peak resident set) of a process in MiB.

    Reads ``/proc/<pid>/status``; for the calling process it falls back to
    ``getrusage`` where ``/proc`` is unavailable.
    """
    path = f"/proc/{pid if pid is not None else 'self'}/status"
    try:
        with open(path, encoding="ascii", errors="replace") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        if pid is not None and pid != os.getpid():
            raise
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, or 0.0 when nothing was counted."""
    return numerator / denominator if denominator else 0.0
