"""Arithmetic of the benchmark: percentiles, self time and ratios.

Kept free of I/O so test_metrics.py can pin every rule on small inputs.
"""

import math
import statistics

# The high percentile is the highest one with at least this many samples
# beyond it, so that one outlier cannot move it.
TAIL_SAMPLES = 10


def high_percentile(samples):
    """Returns (value, percentile, n) for the highest percentile with at
    least TAIL_SAMPLES samples beyond it.

    Sorted ascending, the sample at index i has n - 1 - i samples beyond
    it, so the answer is index n - 1 - TAIL_SAMPLES, at percentile
    100 * (n - TAIL_SAMPLES) / n. Below 2 * TAIL_SAMPLES + 1 samples that
    index falls at or below the median, and the median is returned: too
    few samples measure no tail.
    """
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    n = len(ordered)
    if n < 2 * TAIL_SAMPLES + 1:
        return statistics.median(ordered), 50.0, n
    return ordered[n - 1 - TAIL_SAMPLES], 100.0 * (n - TAIL_SAMPLES) / n, n


def self_time(total, children):
    """Self time of a scope from aggregate totals: its inclusive time
    minus the inclusive time of the child scopes nested in it, never
    below zero (children timed on a separate clock can overshoot)."""
    return max(0.0, total - sum(children))


def covered(start, end, intervals):
    """Length of [start, end) covered by the union of `intervals`."""
    clipped = sorted((max(s, start), min(e, end)) for s, e in intervals)
    total = 0
    cur_s = cur_e = None
    for s, e in clipped:
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def span_self_time(span, children):
    """Self time of a span (start, end): its duration minus the part of
    it that its child spans cover (overlapping children count once)."""
    start, end = span
    return (end - start) - covered(start, end, children)


def ratio(num, den):
    """A ratio with its base: (value, text). An empty base gives 0."""
    value = num / den if den else 0.0
    return value, f"{value:.6g} = {num:.6g} / {den:.6g}"


def iqr_share(values):
    """Inter-quartile distance as a share of the median: the spread the
    benchmark's bounds are checked against."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else math.inf
