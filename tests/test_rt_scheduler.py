"""Tests for the periodic scheduler: pacing, jitter, overrun policies.

All timing uses a fake monotonic clock whose ``sleep`` advances it
exactly, so every release, response, and skip count is deterministic.
"""

from __future__ import annotations

import pytest

from repro.rt.scheduler import JobRecord, PeriodicScheduler


class FakeClock:
    """Deterministic clock; ``sleep`` advances it by exactly the request."""

    def __init__(self):
        self.now = 0.0
        self.sleeps = []

    def __call__(self):
        return self.now

    def sleep(self, dt):
        self.sleeps.append(dt)
        self.now += dt


def run_with_durations(durations, period=10.0, deadline=None, overrun="skip",
                       warmup=0):
    """Run one schedule where job i takes ``durations[i]`` fake seconds."""
    clock = FakeClock()
    queue = iter(durations)

    def job(index):
        clock.now += next(queue)

    scheduler = PeriodicScheduler(
        period_s=period,
        deadline_s=deadline,
        overrun=overrun,
        clock=clock,
        sleep=clock.sleep,
    )
    result = scheduler.run(job, jobs=len(durations) - warmup, warmup=warmup)
    return result, clock


def test_on_time_jobs_release_on_the_grid_with_zero_jitter():
    result, clock = run_with_durations([1.0, 1.0, 1.0, 1.0])
    assert [r.release_s for r in result.records] == [0.0, 10.0, 20.0, 30.0]
    assert all(r.jitter_s == 0.0 for r in result.records)
    assert all(r.response_s == 1.0 for r in result.records)
    assert all(r.latency_s == 1.0 for r in result.records)
    assert result.skipped_releases == 0
    # The loop actually slept to pace (three inter-release gaps of 9s).
    assert clock.sleeps == [9.0, 9.0, 9.0]


def test_skip_policy_drops_releases_that_came_due_mid_job():
    result, _ = run_with_durations([25.0, 1.0, 1.0, 1.0], overrun="skip")
    # Job 0 runs [0, 25]; releases at 10 and 20 are skipped; next is 30.
    assert [r.release_s for r in result.records] == [0.0, 30.0, 40.0, 50.0]
    assert result.skipped_releases == 2
    assert result.records[1].jitter_s == 0.0


def test_skip_policy_job_ending_exactly_on_grid_catches_that_release():
    result, _ = run_with_durations([20.0, 1.0], overrun="skip")
    # Ending exactly at t=20 catches the t=20 release: only t=10 skipped.
    assert [r.release_s for r in result.records] == [0.0, 20.0]
    assert result.skipped_releases == 1
    assert result.records[1].jitter_s == 0.0


def test_queue_policy_keeps_every_release_and_runs_backlog_back_to_back():
    result, _ = run_with_durations([25.0, 1.0, 1.0, 1.0], overrun="queue")
    assert [r.release_s for r in result.records] == [0.0, 10.0, 20.0, 30.0]
    assert [r.start_s for r in result.records] == [0.0, 25.0, 26.0, 30.0]
    assert [r.jitter_s for r in result.records] == [0.0, 15.0, 6.0, 0.0]
    # Queued jobs are charged from their scheduled release.
    assert result.records[1].response_s == pytest.approx(16.0)
    assert result.skipped_releases == 0


def test_deadline_classification_is_inclusive():
    record = JobRecord(index=0, release_s=0.0, start_s=0.0, end_s=10.0)
    assert record.met_deadline(10.0)
    assert not record.met_deadline(9.999)


def test_miss_accounting():
    result, _ = run_with_durations(
        [25.0, 1.0, 1.0, 1.0], deadline=10.0, overrun="queue"
    )
    # Responses: 25, 16, 7, 1 -> two misses out of four.
    assert result.miss_count() == 2
    assert result.miss_rate() == pytest.approx(0.5)


def test_warmup_jobs_recorded_but_excluded_from_stats():
    result, _ = run_with_durations(
        [50.0, 1.0, 1.0], deadline=10.0, overrun="skip", warmup=1
    )
    assert len(result.records) == 3
    assert result.records[0].warmup
    assert len(result.measured()) == 2
    # The warmup job overran by 4 periods but charges no skips/misses.
    assert result.skipped_releases == 0
    assert result.miss_count() == 0


def test_deterministic_under_fake_clock():
    a, _ = run_with_durations([25.0, 3.0, 12.0, 1.0], overrun="skip")
    b, _ = run_with_durations([25.0, 3.0, 12.0, 1.0], overrun="skip")
    assert [
        (r.release_s, r.start_s, r.end_s) for r in a.records
    ] == [(r.release_s, r.start_s, r.end_s) for r in b.records]
    assert a.skipped_releases == b.skipped_releases


def test_deadline_defaults_to_period():
    scheduler = PeriodicScheduler(period_s=0.25)
    assert scheduler.deadline_s == 0.25


def test_invalid_parameters_raise():
    with pytest.raises(ValueError, match="period"):
        PeriodicScheduler(period_s=0.0)
    with pytest.raises(ValueError, match="deadline"):
        PeriodicScheduler(period_s=1.0, deadline_s=-1.0)
    with pytest.raises(ValueError, match="overrun"):
        PeriodicScheduler(period_s=1.0, overrun="explode")
    clock = FakeClock()
    scheduler = PeriodicScheduler(
        period_s=1.0, clock=clock, sleep=clock.sleep
    )
    with pytest.raises(ValueError, match="jobs"):
        scheduler.run(lambda i: None, jobs=0)


def test_real_monotonic_clock_smoke():
    """A tiny run on the real clock: sane ordering, non-negative times."""
    scheduler = PeriodicScheduler(period_s=0.002, deadline_s=0.002)
    result = scheduler.run(lambda i: None, jobs=3)
    for record in result.records:
        assert record.end_s >= record.start_s >= record.release_s >= 0.0
    releases = [r.release_s for r in result.records]
    assert releases == sorted(releases)
