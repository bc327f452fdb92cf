"""Real-time execution subsystem.

RTRBench's subject is *real-time* robotics, but a single ROI wall-clock
number says nothing about the properties that define real-time behavior:
response-time distributions, release jitter, and deadline misses under
load.  This package runs any registered kernel as a **periodic task** —
a release loop fires jobs at a configurable period, each job advancing
the kernel's step session by one step or one whole episode — and
reports latency quantiles (exact nearest rank over the raw samples),
release jitter and deadline-miss rate, optionally under CPU /
memory-bandwidth antagonist load.  The rt gates
(:mod:`repro.results.gates`) judge the record it emits.

Modules:

* :mod:`repro.rt.scheduler` — periodic release loop with
  monotonic-clock pacing, deterministic overrun policies, and warmup
  exclusion; it records timestamps and counts nothing;
* :mod:`repro.rt.interference` — CPU and memory-bandwidth antagonist
  processes for degradation-under-load measurements;
* :mod:`repro.rt.slo` — every rt statistic, computed once from the raw
  samples: the latency block (:func:`~repro.rt.slo.latency_summary`)
  and the per-condition summary (quantiles, jitter, miss rate);
* :mod:`repro.rt.run` — end-to-end orchestration behind ``rtrbench rt``
  (``BENCH_rt.json``).
"""

from repro.rt.scheduler import JobRecord, PeriodicScheduler, ScheduleResult
from repro.rt.slo import latency_summary, summarize_jobs
from repro.rt.run import run_rt

__all__ = [
    "JobRecord",
    "PeriodicScheduler",
    "ScheduleResult",
    "latency_summary",
    "summarize_jobs",
    "run_rt",
]
