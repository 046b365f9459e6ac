"""The benchmark's own arithmetic: percentiles, self time, failure share
and the job-list digest.  Pure functions, tested in ``test_benchstats``."""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from fractions import Fraction

# Candidate tail percentiles, highest first.
TAIL_LADDER = (99.9, 99.0, 90.0, 50.0)


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least p% of
    the samples at or below it."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    return ordered[_rank(len(ordered), p) - 1]


def _rank(n, p):
    # exact arithmetic, so that p99.9 of 10000 samples is rank 9990
    return max(1, math.ceil(Fraction(str(p)) * n / 100))


def samples_beyond(n, p):
    """How many of n samples lie above the nearest-rank p-th percentile."""
    return n - _rank(n, p)


def tail_percentile(n):
    """The highest percentile of the ladder that leaves at least ten of n
    samples beyond it (None when even the median does not)."""
    for p in TAIL_LADDER:
        if samples_beyond(n, p) >= 10:
            return p
    return None


def median(values):
    return statistics.median(values)


def self_times(spans):
    """Per-layer call count and self time from a span list.

    ``spans[i]`` is ``(parent, layer, name, t0, t1)`` with ``parent`` the
    index of the enclosing span or -1.  Spans of one process never
    overlap except by nesting, so a span's self time is its duration
    minus the durations of its direct children."""
    child_time = [0.0] * len(spans)
    for parent, _layer, _name, t0, t1 in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    out = {}
    for i, (_parent, layer, _name, t0, t1) in enumerate(spans):
        calls, self_s = out.get(layer, (0, 0.0))
        out[layer] = (calls + 1, self_s + (t1 - t0) - child_time[i])
    return out


def name_counts(spans):
    counts = {}
    for span in spans:
        counts[span[2]] = counts.get(span[2], 0) + 1
    return counts


def calls_under(spans, name, ancestor):
    """Number of spans called ``name`` that have an ancestor called
    ``ancestor``."""
    total = 0
    for parent, _layer, span_name, _t0, _t1 in spans:
        if span_name != name:
            continue
        while parent >= 0:
            if spans[parent][2] == ancestor:
                total += 1
                break
            parent = spans[parent][0]
    return total


def failed_share(outcomes):
    """Failed jobs over attempted jobs; ``outcomes`` holds one truthy
    value per job that succeeded and a falsy one per job that failed."""
    outcomes = list(outcomes)
    if not outcomes:
        raise ValueError("no jobs attempted")
    return sum(1 for ok in outcomes if not ok) / len(outcomes)


def job_digest(specs):
    """SHA-256 of the canonical JSON of a job list's specifications."""
    text = json.dumps(specs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
