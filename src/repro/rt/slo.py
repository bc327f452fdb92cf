"""Deadline accounting for a periodic run.

A periodic run produces a list of :class:`~repro.rt.scheduler.JobRecord`
rows; this module turns them into the serving-style numbers the rt
report leads with — response/latency quantiles, release-jitter stats,
deadline-miss rate.  It reports them and judges nothing: the rt gates
(:data:`repro.results.gates.DEFAULT_GATES`) decide pass/fail on the
record ``rtrbench rt`` emits.
"""

from __future__ import annotations

from typing import Any, Dict, Sequence

from repro.rt.histogram import LatencyHistogram
from repro.rt.scheduler import JobRecord


def summarize_jobs(
    records: Sequence[JobRecord],
    deadline_s: float,
    skipped_releases: int = 0,
) -> Dict[str, Any]:
    """Distill job records into the rt report's summary block.

    Warmup records are excluded.  Times are reported in milliseconds
    (the natural unit at robot control rates); jitter is summarized by
    mean/absolute-max/p99 of the release-time error.
    """
    measured = [r for r in records if not r.warmup]
    if not measured:
        return {"jobs": 0}
    response = LatencyHistogram.from_values(r.response_s for r in measured)
    latency = LatencyHistogram.from_values(r.latency_s for r in measured)
    # Jitter can be negative only by clock quirks; clamp for the histogram
    # but keep the signed mean.
    jitter_values = [max(0.0, r.jitter_s) for r in measured]
    jitter = LatencyHistogram.from_values(jitter_values)
    misses = sum(1 for r in measured if not r.met_deadline(deadline_s))
    return {
        "jobs": len(measured),
        "deadline_ms": deadline_s * 1e3,
        "misses": misses,
        "miss_rate": misses / len(measured),
        "skipped_releases": skipped_releases,
        "skip_rate": skipped_releases / len(measured),
        "response_ms": response.summary(scale=1e3),
        "latency_ms": latency.summary(scale=1e3),
        "jitter_ms": {
            "mean": sum(r.jitter_s for r in measured) / len(measured) * 1e3,
            "p99": jitter.quantile(0.99) * 1e3,
            "max": jitter.max * 1e3,
        },
    }

