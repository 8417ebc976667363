"""Summary statistics shared by the benchmark and its tests."""

from __future__ import annotations

import math
import statistics

#: candidate tail percentiles, lowest first; the tail is the highest one
#: that leaves at least ``MIN_BEYOND`` samples ranked after it.  The
#: benchmark applies it to one pass's operations of a class, a count the
#: workload fixes, so each class keeps one percentile.
TAIL_LADDER = (50.0, 75.0, 90.0, 99.0)
MIN_BEYOND = 10


def rank(n: int, p: float) -> int:
    """1-based nearest-rank position of percentile ``p`` among ``n`` samples."""
    return max(1, math.ceil(p / 100.0 * n - 1e-9))


def percentile(sorted_values: list, p: float):
    return sorted_values[rank(len(sorted_values), p) - 1]


def tail_percentile(n: int) -> float | None:
    """Highest ladder percentile with at least ten samples ranked beyond it."""
    best = None
    for p in TAIL_LADDER:
        if n - rank(n, p) >= MIN_BEYOND:
            best = p
    return best


def latency_summary(samples: list) -> dict:
    """Median and tail of ``samples`` with the percentile used and the count.

    With fewer than twenty samples no percentile qualifies and the tail
    falls back to the median; ``tail_p`` is then None.
    """
    values = sorted(samples)
    n = len(values)
    p = tail_percentile(n)
    return {
        "n": n,
        "p50": percentile(values, 50.0),
        "tail_p": p,
        "tail": percentile(values, p if p is not None else 50.0),
    }


def typical_latencies(passes: list) -> list:
    """Each operation's median latency over the passes, one list per pass.

    Passes replay the same operations, so a slow stretch of the host that
    covers a minority of the passes leaves the medians alone.
    """
    return [statistics.median(column) for column in zip(*passes)]


def covered(interval: tuple, children: list) -> int:
    """Length of ``interval`` covered by the union of ``children`` intervals."""
    lo, hi = interval
    total = 0
    cursor = lo
    for start, end in sorted(children):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: list) -> dict:
    """Sum of self time per span name.

    ``spans`` holds ``(name, start, end, parent, op)`` tuples where
    ``parent`` is the index of the enclosing span or -1.  A span's self
    time is its duration minus the part of it that its children cover.
    """
    children: list[list] = [[] for _ in spans]
    for name, start, end, parent, _op in spans:
        if parent >= 0:
            children[parent].append((start, end))
    totals: dict[str, int] = {}
    for (name, start, end, _parent, _op), kids in zip(spans, children):
        own = (end - start) - covered((start, end), kids)
        totals[name] = totals.get(name, 0) + own
    return totals


def quartile_spread(values: list) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else math.inf
