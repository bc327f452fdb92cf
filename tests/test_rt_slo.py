"""Tests for deadline summarization and the miss-rate gate's boundary.

:func:`~repro.rt.slo.summarize_jobs` is the one place that counts a
deadline miss; the latency block it reports is tested in
``test_rt_histogram.py``.
"""

from __future__ import annotations

import pytest

from repro.results import Measurement, RunRecord, evaluate_gates
from repro.rt.scheduler import JobRecord
from repro.rt.slo import latency_summary, summarize_jobs


def _records(responses, period=10.0):
    """Synthesize on-grid job records with the given response times."""
    return [
        JobRecord(
            index=i,
            release_s=i * period,
            start_s=i * period,
            end_s=i * period + response,
        )
        for i, response in enumerate(responses)
    ]


def test_summarize_counts_misses_and_quantiles():
    records = _records([1.0, 2.0, 3.0, 12.0])
    summary = summarize_jobs(records, deadline_s=10.0, skipped_releases=3)
    assert summary["jobs"] == 4
    assert summary["misses"] == 1
    assert summary["miss_rate"] == pytest.approx(0.25)
    assert summary["skipped_releases"] == 3
    assert summary["skip_rate"] == pytest.approx(0.75)
    assert summary["response_ms"]["max"] == pytest.approx(12_000.0)
    assert summary["response_ms"]["p50"] == pytest.approx(2_000.0)
    assert summary["deadline_ms"] == pytest.approx(10_000.0)


def test_summarize_excludes_warmup():
    records = _records([100.0, 1.0, 1.0])
    records[0].warmup = True
    summary = summarize_jobs(records, deadline_s=10.0)
    assert summary["jobs"] == 2
    assert summary["misses"] == 0


def test_summarize_jitter_block():
    records = [
        JobRecord(index=0, release_s=0.0, start_s=0.002, end_s=0.01),
        JobRecord(index=1, release_s=0.1, start_s=0.1, end_s=0.11),
    ]
    summary = summarize_jobs(records, deadline_s=1.0)
    assert summary["jitter_ms"]["max"] == pytest.approx(2.0)
    assert summary["jitter_ms"]["mean"] == pytest.approx(1.0)


def test_summarize_blocks_come_from_the_raw_samples():
    records = [
        JobRecord(index=i, release_s=0.01 * i, start_s=0.01 * i + j,
                  end_s=0.01 * i + j + d)
        for i, (j, d) in enumerate(
            [(0.0, 0.003), (0.001, 0.002), (-1e-9, 0.004), (0.0005, 0.001)]
        )
    ]
    summary = summarize_jobs(records, deadline_s=0.01)
    assert summary["response_ms"] == latency_summary(
        [r.response_s for r in records], scale=1e3
    )
    assert summary["latency_ms"] == latency_summary(
        [r.latency_s for r in records], scale=1e3
    )
    # Jitter's p99 and max use the same nearest rank on the clamped
    # samples (the one negative start error counts as 0).
    clamped = latency_summary(
        [max(0.0, r.jitter_s) for r in records], scale=1e3
    )
    assert summary["jitter_ms"]["p99"] == clamped["p99"]
    assert summary["jitter_ms"]["max"] == clamped["max"]


def _verdicts(summary, deadline_s=None):
    """Per-gate rt verdicts on a record built from this summary.

    With ``deadline_s`` the record is a step record, which also carries
    the unloaded p99 over the deadline.
    """
    measurements = {}
    if "miss_rate" in summary:
        measurements["unloaded.miss_rate"] = Measurement(
            summary["miss_rate"], "ratio", False
        )
    if deadline_s is not None:
        measurements["rt.step.p99_deadline_ratio"] = Measurement(
            summary["response_ms"]["p99"] / (deadline_s * 1e3), "ratio", False
        )
    record = RunRecord(kind="rt", measurements=measurements)
    return {r.gate: r for r in evaluate_gates(record)}


def _judged(summary):
    """The rt.miss-rate-ceiling verdict on a run with this summary."""
    return _verdicts(summary)["rt.miss-rate-ceiling"]


def test_empty_records_summary_and_verdict():
    summary = summarize_jobs([], deadline_s=1.0)
    assert summary == {"jobs": 0}
    # No evidence is not a met deadline budget: the gate fails a record
    # that carries no unloaded miss rate.
    verdict = _judged(summary)
    assert verdict.failed
    assert "absent" in verdict.reason


def test_miss_rate_bound_is_inclusive():
    # 1 of 10 jobs past the deadline sits exactly on the 10% ceiling.
    at_bound = summarize_jobs(_records([1.0] * 9 + [12.0]), deadline_s=10.0)
    assert at_bound["miss_rate"] == pytest.approx(0.1)
    assert _judged(at_bound).passed
    above = summarize_jobs(_records([1.0] * 8 + [12.0] * 2), deadline_s=10.0)
    verdict = _judged(above)
    assert verdict.failed
    assert "unloaded.miss_rate" in verdict.reason


def test_zero_miss_policy_passes_clean_run():
    summary = summarize_jobs(_records([1.0, 2.0]), deadline_s=10.0)
    assert summary["misses"] == 0
    assert _judged(summary).passed


def test_p99_response_bound():
    # rt.step-p99-deadline-ceiling: a step run's p99 may reach the
    # deadline (inclusive) but not pass it.
    records = _records([1.0] * 98 + [50.0, 50.0], period=100.0)
    summary = summarize_jobs(records, deadline_s=50.0)
    at_deadline = _verdicts(summary, deadline_s=50.0)
    assert at_deadline["rt.step-p99-deadline-ceiling"].passed
    past = _verdicts(summary, deadline_s=49.0)
    assert past["rt.step-p99-deadline-ceiling"].failed


def test_multiple_violations_all_reported():
    summary = summarize_jobs(_records([20.0, 20.0]), deadline_s=10.0)
    failed = sorted(
        name
        for name, result in _verdicts(summary, deadline_s=10.0).items()
        if result.failed
    )
    assert failed == ["rt.miss-rate-ceiling", "rt.step-p99-deadline-ceiling"]
