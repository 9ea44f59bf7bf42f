"""Percentile and ratio helpers for perfbench/run.py.

Latencies arrive as exact histograms ({value: count}); percentiles are
nearest-rank, so every reported value is one that was actually observed.
"""

import math

# The percentile ladder the summary climbs: 50, 90, 99, 99.9, 99.99, ...
LADDER = (0.5, 0.9, 0.99, 0.999, 0.9999, 0.99999, 0.999999)

# A percentile is only reported as resolved when at least this many
# samples lie beyond it.
MIN_BEYOND = 10


def sample_count(hist):
    return sum(hist.values())


def percentile(hist, q):
    """Nearest-rank q-quantile (0 < q <= 1) of a {value: count} histogram:
    the smallest value v with at least ceil(q * n) samples <= v."""
    n = sample_count(hist)
    if n == 0:
        raise ValueError("percentile of an empty histogram")
    if not 0 < q <= 1:
        raise ValueError("q must be in (0, 1]")
    rank = max(1, math.ceil(q * n - 1e-9))
    seen = 0
    for value in sorted(hist):
        seen += hist[value]
        if seen >= rank:
            return value
    raise AssertionError("unreachable: counts sum to n")


def beyond(n, q):
    """Samples strictly beyond the nearest-rank q-quantile's rank."""
    return n - max(1, math.ceil(q * n - 1e-9))


def top_percentile(hist):
    """The highest ladder percentile with at least MIN_BEYOND samples
    beyond it, as (q, value, n); None when even the median is unresolved."""
    n = sample_count(hist)
    best = None
    for q in LADDER:
        if beyond(n, q) < MIN_BEYOND:
            break
        best = (q, percentile(hist, q), n)
    return best


def percent_label(q):
    """0.999 -> 'p99.9'."""
    text = f"{q * 100:.6f}".rstrip("0").rstrip(".")
    return "p" + text


def ratio(part, base):
    """part / base, reported with its base; 0 when the base is 0 (the
    layer did no work on this workload)."""
    return {"value": part / base if base else 0.0, "base": base}

