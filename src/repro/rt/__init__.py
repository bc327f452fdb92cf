"""Real-time execution subsystem.

RTRBench's subject is *real-time* robotics, but a single ROI wall-clock
number says nothing about the properties that define real-time behavior:
response-time distributions, release jitter, and deadline misses under
load.  This package runs any registered kernel as a **periodic task** —
a release loop fires jobs at a configurable period, each job advancing
the kernel's step session by one step or one whole episode — and
reports latency quantiles (exact, from a mergeable log-bucketed
histogram), release jitter, deadline-miss rate, and an SLO verdict,
optionally under CPU / memory-bandwidth antagonist load.

Modules:

* :mod:`repro.rt.histogram` — dependency-free log-bucketed latency
  histogram with exact quantiles and O(1) recording;
* :mod:`repro.rt.scheduler` — periodic release loop with
  monotonic-clock pacing, deterministic overrun policies, and warmup
  exclusion;
* :mod:`repro.rt.interference` — CPU and memory-bandwidth antagonist
  processes for degradation-under-load measurements;
* :mod:`repro.rt.slo` — deadline/SLO evaluation and report dataclasses;
* :mod:`repro.rt.run` — end-to-end orchestration behind ``rtrbench rt``
  (``BENCH_rt.json``).
"""

from repro.rt.histogram import LatencyHistogram
from repro.rt.scheduler import JobRecord, PeriodicScheduler, ScheduleResult
from repro.rt.slo import SLOPolicy, SLOVerdict, evaluate_slo, summarize_jobs
from repro.rt.run import run_rt

__all__ = [
    "LatencyHistogram",
    "JobRecord",
    "PeriodicScheduler",
    "ScheduleResult",
    "SLOPolicy",
    "SLOVerdict",
    "evaluate_slo",
    "summarize_jobs",
    "run_rt",
]
