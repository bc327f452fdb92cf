"""Deadline accounting for a periodic run.

A periodic run produces a list of :class:`~repro.rt.scheduler.JobRecord`
rows; this module turns them into the serving-style numbers the rt
report leads with — response/latency quantiles, release-jitter stats,
deadline-miss rate.  Every statistic is computed here, once, straight
from the raw samples.  It reports them and judges nothing: the rt gates
(:data:`repro.results.gates.DEFAULT_GATES`) decide pass/fail on the
record ``rtrbench rt`` emits.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, Sequence

from repro.rt.scheduler import JobRecord

#: Quantiles of a latency block, keyed by their report names.
_QUANTILES = (("p50", 0.5), ("p90", 0.9), ("p99", 0.99), ("p999", 0.999))


def _nearest_rank(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank ``q`` quantile of an ascending, non-empty sequence."""
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def latency_summary(
    values: Iterable[float], scale: float = 1.0
) -> Dict[str, float]:
    """Report block of non-negative samples: count/mean/min/max + quantiles.

    Quantiles are nearest rank over one sorted copy; the mean sums the
    samples left to right, in the order given.  ``scale`` multiplies
    every value on the way out (e.g. 1e3 to report seconds as
    milliseconds).  No samples give ``{"count": 0}``.
    """
    samples = [float(value) for value in values]
    if not samples:
        return {"count": 0}
    # Not sum(): from Python 3.12 it compensates float sums, which would
    # move the mean's bits between interpreters.
    total = 0.0
    for value in samples:
        if value < 0.0 or math.isnan(value):
            raise ValueError(f"cannot summarize latency sample {value!r}")
        total += value
    ordered = sorted(samples)
    block = {
        "count": len(samples),
        "mean": total / len(samples) * scale,
        "min": ordered[0] * scale,
    }
    for name, q in _QUANTILES:
        block[name] = _nearest_rank(ordered, q) * scale
    block["max"] = ordered[-1] * scale
    return block


def summarize_jobs(
    records: Sequence[JobRecord],
    deadline_s: float,
    skipped_releases: int = 0,
) -> Dict[str, Any]:
    """Distill job records into the rt report's summary block.

    Warmup records are excluded.  This is the one place that counts a
    deadline miss.  Times are reported in milliseconds (the natural unit
    at robot control rates); jitter is summarized by mean/absolute-max/p99
    of the release-time error.
    """
    measured = [r for r in records if not r.warmup]
    if not measured:
        return {"jobs": 0}
    # Jitter can be negative only by clock quirks; clamp it for the
    # quantiles but keep the signed mean.
    jitter = sorted(max(0.0, r.jitter_s) for r in measured)
    misses = sum(1 for r in measured if not r.met_deadline(deadline_s))
    return {
        "jobs": len(measured),
        "deadline_ms": deadline_s * 1e3,
        "misses": misses,
        "miss_rate": misses / len(measured),
        "skipped_releases": skipped_releases,
        "skip_rate": skipped_releases / len(measured),
        "response_ms": latency_summary(
            (r.response_s for r in measured), scale=1e3
        ),
        "latency_ms": latency_summary(
            (r.latency_s for r in measured), scale=1e3
        ),
        "jitter_ms": {
            "mean": sum(r.jitter_s for r in measured) / len(measured) * 1e3,
            "p99": _nearest_rank(jitter, 0.99) * 1e3,
            "max": jitter[-1] * 1e3,
        },
    }
