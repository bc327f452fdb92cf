"""Periodic release loop with monotonic-clock pacing.

The real-time execution model (RT-Bench-style): a task releases a job
every ``period_s`` seconds on a fixed release grid anchored at the
loop's start; each job runs one kernel iteration; the job's *response
time* is measured from its scheduled release to its completion, so a
job that starts late (the previous job overran, or the OS woke us late)
is charged for the delay exactly as a real control loop would be.

Pacing uses an injectable monotonic clock and sleep function —
``time.monotonic``/``time.sleep`` in production, a fake clock in tests —
so the overrun policies are deterministic and unit-testable without
real waiting.

Overrun policies (what happens when a job finishes after the next
scheduled release):

* ``"skip"`` — skip the releases that came due while the job ran; the
  next job releases at the next grid point strictly after completion.
  Missed grid points are counted in ``ScheduleResult.skipped_releases``.
  This models a control loop that always acts on fresh sensor data.
* ``"queue"`` — keep every release: late jobs start immediately,
  back-to-back, until the loop catches up with the grid.  This models a
  pipeline that must process every input (and exposes cascading misses).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Any, Callable, List

#: Valid overrun policies, in documentation order.
OVERRUN_POLICIES = ("skip", "queue")


@dataclass
class JobRecord:
    """One periodic job's timing, all in seconds relative to loop start.

    ``response_s`` (completion minus scheduled release) is the number a
    deadline compares against; ``latency_s`` (completion minus actual
    start) is pure service time; ``jitter_s`` (actual start minus
    scheduled release) is the release-time error the scheduler itself
    introduced — sleep overshoot or a queued backlog.
    """

    index: int
    release_s: float
    start_s: float
    end_s: float
    warmup: bool = False

    @property
    def response_s(self) -> float:
        """Completion minus scheduled release (the deadline-facing time)."""
        return self.end_s - self.release_s

    @property
    def latency_s(self) -> float:
        """Completion minus actual start (pure service time)."""
        return self.end_s - self.start_s

    @property
    def jitter_s(self) -> float:
        """Actual start minus scheduled release (release-time error)."""
        return self.start_s - self.release_s

    def met_deadline(self, deadline_s: float) -> bool:
        """True when the job completed within ``deadline_s`` of release."""
        return self.response_s <= deadline_s


@dataclass
class ScheduleResult:
    """Everything one periodic run produced.

    ``records`` includes warmup jobs (flagged ``warmup=True``) so traces
    are complete; :meth:`measured` filters them out.  Deadline
    accounting is :func:`repro.rt.slo.summarize_jobs`'s job.
    """

    period_s: float
    overrun: str
    records: List[JobRecord] = field(default_factory=list)
    skipped_releases: int = 0

    def measured(self) -> List[JobRecord]:
        """The non-warmup jobs, in release order."""
        return [r for r in self.records if not r.warmup]


class PeriodicScheduler:
    """Release jobs on a fixed period and record per-job timing.

    ``job_fn`` receives the job index; its return value is ignored.
    ``warmup`` jobs run first, on the same release grid, but are
    excluded from statistics — they absorb cache warming and JIT-ish
    first-run effects.
    """

    def __init__(
        self,
        period_s: float,
        overrun: str = "skip",
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if period_s <= 0.0:
            raise ValueError("period_s must be positive")
        if overrun not in OVERRUN_POLICIES:
            raise ValueError(
                f"unknown overrun policy {overrun!r}; "
                f"expected one of {OVERRUN_POLICIES}"
            )
        self.period_s = period_s
        self.overrun = overrun
        self._clock = clock
        self._sleep = sleep

    def run(
        self,
        job_fn: Callable[[int], Any],
        jobs: int,
        warmup: int = 0,
    ) -> ScheduleResult:
        """Execute ``warmup + jobs`` periodic releases of ``job_fn``."""
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if warmup < 0:
            raise ValueError("warmup must be >= 0")
        result = ScheduleResult(
            period_s=self.period_s,
            overrun=self.overrun,
        )
        t0 = self._clock()
        grid = 0  # release index: release time is t0 + grid * period
        for index in range(warmup + jobs):
            release = t0 + grid * self.period_s
            now = self._clock()
            if now < release:
                self._sleep(release - now)
                now = self._clock()
            start = now
            job_fn(index)
            end = self._clock()
            is_warmup = index < warmup
            result.records.append(
                JobRecord(
                    index=index,
                    release_s=release - t0,
                    start_s=start - t0,
                    end_s=end - t0,
                    warmup=is_warmup,
                )
            )
            if self.overrun == "queue":
                grid += 1
            else:
                # "skip": next release is the earliest grid point at or
                # after completion (a job ending exactly on the grid
                # still catches that release); grid points that came due
                # strictly mid-job are counted as skipped.
                next_grid = max(
                    grid + 1, math.ceil((end - t0) / self.period_s)
                )
                if not is_warmup:
                    result.skipped_releases += next_grid - (grid + 1)
                grid = next_grid
        return result
