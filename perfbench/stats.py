"""Statistics of the benchmark: medians, quartiles, percentiles and span
self time. Kept free of I/O so perfbench/test_stats.py can pin them."""

import math
import statistics

# A percentile is reported only when at least this many samples lie
# beyond it; below that it rests on too few slow cases to mean much.
MIN_SAMPLES_BEYOND = 10


def median(values):
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def quartiles(values):
    """First and third quartile, as statistics.quantiles(n=4) gives them
    (the exclusive method); one sample is its own quartiles."""
    if not values:
        raise ValueError("quartiles of no samples")
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, q3 = quartiles(values)
    m = median(values)
    return (q3 - q1) / abs(m) if m else math.inf


def percentile(values, p):
    """Nearest-rank percentile, p in (0, 100]: the smallest sample with at
    least p% of the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < p <= 100:
        raise ValueError("percentile out of range")
    ordered = sorted(values)
    rank = math.ceil(p / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


def samples_beyond(n, p):
    """How many of n samples lie strictly above the nearest-rank p-th
    percentile."""
    return n - max(math.ceil(p / 100.0 * n), 1)


def supports_percentile(n, p):
    return samples_beyond(n, p) >= MIN_SAMPLES_BEYOND


def highest_supported_percentile(n):
    """The highest whole percentile with at least MIN_SAMPLES_BEYOND
    samples beyond it, or None when even the median lacks them."""
    for p in range(99, 49, -1):
        if supports_percentile(n, p):
            return p
    return None


def _covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total = 0
    end_so_far = None
    for start, end in sorted(intervals):
        if end_so_far is None or start > end_so_far:
            total += end - start
            end_so_far = end
        elif end > end_so_far:
            total += end - end_so_far
            end_so_far = end
    return total


def self_times(spans):
    """Self time of each span: its duration minus the part of it that its
    child spans cover (children clipped to the parent, overlaps counted
    once). Spans are dicts with id, parent, start_ns and end_ns; returns
    {id: self_ns}."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        lo, hi = s["start_ns"], s["end_ns"]
        kids = [
            (max(c["start_ns"], lo), min(c["end_ns"], hi))
            for c in children.get(s["id"], [])
            if c["end_ns"] > lo and c["start_ns"] < hi
        ]
        out[s["id"]] = (hi - lo) - _covered(kids)
    return out
