"""End-to-end real-time benchmarking (``rtrbench rt``, ``BENCH_rt.json``).

Glue between the rt building blocks and the rest of the harness: resolve
a kernel from the registry, run it as a periodic task through
:class:`~repro.rt.scheduler.PeriodicScheduler`, optionally repeat the
run under antagonist load, and assemble the machine-readable report
with latency quantiles, release jitter, deadline-miss rate, and a phase
breakdown with per-phase min/max durations from the shared profiler
stats.  The report judges nothing; pass/fail is the gates' call.

Every periodic job is one call of a :class:`SessionJob`, which advances
a :class:`~repro.harness.runner.StepSession` (a batch kernel is a
one-step session): the job that finds no live episode opens one, and
the job that runs an episode's last step finalizes it.  The execution
granularity (``granularity=``) decides only two things:

* ``"run"`` — a job runs the whole episode, and every episode builds its
  own workload (``open_session(config, state=None)`` runs ``setup``):
  setup + full ROI, what ``Kernel.run`` pays per repeat.  Works for
  every kernel.
* ``"step"`` — a job runs one step, and every episode reuses one
  workload built up front.  This is the RT-Bench periodic-application
  model at the kernel's natural iteration rate (one scan, one control
  tick, one CEM generation...), so deadline accounting becomes
  per-iteration and slow kernels like pfl and mpc are rt-schedulable.
  The job that opens an episode also pays the kernel's ``begin_roi``,
  exactly like a deployed system re-initializing between missions.

Warmup jobs stay out of every statistic, the phase breakdown included.

The CI contract — outside smoke mode at most 10% of unloaded jobs may
miss their deadline, and an antagonist run must actually degrade p99
latency — is expressed as the ``rt.*`` gate declarations in
:data:`repro.results.gates.DEFAULT_GATES`, which ``rtrbench rt`` and
``rtrbench gate`` enforce on the emitted record; step records also
carry ``rt.step.p99_deadline_ratio`` for ``rt.step-p99-deadline-ceiling``.
"""

from __future__ import annotations

import math
import statistics
import time
from typing import Any, Callable, Dict, Optional

from repro.harness.config import KernelConfig, rt_defaults
from repro.harness.profiler import PhaseProfiler
from repro.harness.runner import (
    Kernel,
    StepSession,
    load_all_kernels,
    registry,
)
from repro.rt.interference import AntagonistPool
from repro.rt.scheduler import PeriodicScheduler
from repro.rt.slo import latency_summary, summarize_jobs

#: Valid execution granularities, in documentation order.
GRANULARITIES = ("run", "step")

#: Auto-calibrated period = headroom x median job wall clock.
CALIBRATION_HEADROOM = 2.0

#: Floor for auto-calibrated periods (seconds).
CALIBRATION_MIN_PERIOD_S = 1e-3


class SessionJob:
    """The one periodic job: advance a step session of ``kernel``.

    Each call runs one step, or every step of the episode when
    ``whole_episode``.  A call that finds no live episode opens one on
    ``state`` (``None`` builds a fresh workload per episode through
    :meth:`Kernel.setup`); the call that runs an episode's last step
    finalizes it.  Every session reports into ``profiler``.
    """

    def __init__(
        self,
        kernel: Kernel,
        config: KernelConfig,
        state: Any,
        whole_episode: bool,
    ) -> None:
        self.kernel = kernel
        self.config = config
        self.state = state
        self.whole_episode = whole_episode
        self.profiler = PhaseProfiler()
        self.session: Optional[StepSession] = None
        self.episodes = 0

    def __call__(self) -> float:
        """Run one job; returns the wall clock of the steps it ran."""
        session = self.session
        if session is None or session.finalized:
            session = self.kernel.open_session(
                self.config, state=self.state, profiler=self.profiler
            )
            if session.total_steps < 1:
                raise ValueError(
                    f"kernel {self.kernel.name} produced an empty episode"
                )
            self.session = session
            self.episodes += 1
        t0 = time.monotonic()
        session.step()
        while self.whole_episode and not session.exhausted:
            session.step()
        wall = time.monotonic() - t0
        if session.exhausted:
            session.finish()
        return wall


def calibrate_period_s(job: Callable[[], Any], samples: int = 3) -> float:
    """Measure unpaced job wall clock and pick a schedulable period.

    One untimed call warms the workload cache, then the median of
    ``samples`` timed calls of the periodic job itself is scaled by
    :data:`CALIBRATION_HEADROOM`, a period the unloaded machine can hold
    without being trivially loose.
    """
    job()
    walls = []
    for _ in range(max(1, samples)):
        t0 = time.monotonic()
        job()
        walls.append(time.monotonic() - t0)
    return max(
        CALIBRATION_MIN_PERIOD_S,
        CALIBRATION_HEADROOM * statistics.median(walls),
    )


def _phase_block(profiler: PhaseProfiler) -> Dict[str, Any]:
    """Aggregate phase breakdown with per-call min/max/last durations."""
    fractions = profiler.fractions()
    return {
        "dominant": profiler.dominant_phase(),
        "phases": {
            name: {
                "share": fractions[name],
                "calls": st.calls,
                "mean_ms": (
                    st.inclusive_time / st.calls * 1e3 if st.calls else 0.0
                ),
                "min_ms": st.min_time * 1e3,
                "max_ms": st.max_time * 1e3,
                "last_ms": st.last_time * 1e3,
            }
            for name, st in profiler.stats.items()
        },
    }


def run_condition(
    job: SessionJob,
    period_s: float,
    deadline_s: float,
    jobs: int,
    warmup: int = 0,
    overrun: str = "skip",
) -> Dict[str, Any]:
    """One periodic run of ``job`` under the current machine condition.

    ``roi_ms`` summarizes the wall clock of the steps each measured job
    ran; the phase breakdown covers the measured jobs only (the shared
    profiler is cleared when the first measured job starts).
    """
    roi_walls = []

    def periodic(index: int) -> None:
        if index == warmup:
            job.profiler.reset()
        wall = job()
        if index >= warmup:
            roi_walls.append(wall)

    scheduler = PeriodicScheduler(period_s=period_s, overrun=overrun)
    schedule = scheduler.run(periodic, jobs=jobs, warmup=warmup)
    summary = summarize_jobs(
        schedule.records, deadline_s, schedule.skipped_releases
    )
    summary["roi_ms"] = latency_summary(roi_walls, scale=1e3)
    summary["busy_s"] = sum(r.latency_s for r in schedule.measured())
    summary["phase_breakdown"] = _phase_block(job.profiler)
    summary["episodes"] = job.episodes
    summary["last_episode_steps"] = job.session.steps_done
    return summary


def run_rt(
    kernel: str,
    period_ms: Optional[float] = None,
    deadline_ms: Optional[float] = None,
    jobs: Optional[int] = None,
    warmup: Optional[int] = None,
    overrun: str = "skip",
    antagonists: int = 0,
    antagonist_kind: str = "cpu",
    smoke: bool = False,
    config: Optional[KernelConfig] = None,
    granularity: str = "run",
    **overrides: Any,
) -> Dict[str, Any]:
    """Run a registered kernel as a periodic task; return the rt report.

    ``granularity="run"`` schedules whole episodes as jobs;
    ``granularity="step"`` (steppable kernels only) schedules single
    iterations over one shared workload.  ``period_ms=None`` takes the
    kernel's default from :data:`repro.harness.config.RT_KERNEL_DEFAULTS`
    (``period_ms`` for run granularity, ``step_period_ms`` for step
    granularity, falling back to auto-calibration when the kernel has no
    step default); ``period_ms=0`` always auto-calibrates from unpaced
    jobs.  ``deadline_ms`` defaults to the period (implicit deadline).
    With ``antagonists > 0`` the run executes twice — unloaded, then
    under the antagonist pool — and the report records both conditions
    side by side with degradation ratios.  ``overrides`` patch the
    kernel's configuration, mirroring ``rtrbench run`` flags.

    Every bad value raises :class:`ValueError` naming its option before
    any job runs.
    """
    if period_ms is not None and not 0.0 <= period_ms < math.inf:
        raise ValueError(
            f"period_ms must be finite and >= 0 (0 auto-calibrates), "
            f"got {period_ms!r}"
        )
    if deadline_ms is not None and not deadline_ms > 0.0:
        raise ValueError(f"deadline_ms must be > 0, got {deadline_ms!r}")
    jobs = (12 if smoke else 50) if jobs is None else int(jobs)
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    warmup = (1 if smoke else 3) if warmup is None else int(warmup)
    if warmup < 0:
        raise ValueError(f"warmup must be >= 0, got {warmup}")
    if antagonists < 0:
        raise ValueError(f"antagonists must be >= 0, got {antagonists}")
    if granularity not in GRANULARITIES:
        raise ValueError(
            f"unknown granularity {granularity!r}; "
            f"expected one of {GRANULARITIES}"
        )
    load_all_kernels()
    cls = registry.get(kernel)
    instance = cls()
    per_step = granularity == "step"
    if per_step and not cls.is_steppable():
        raise ValueError(
            f"kernel {cls.name} is not steppable; use granularity='run'"
        )
    if config is None:
        config = cls.config_cls(**overrides) if overrides else cls.config_cls()
    elif overrides:
        config = config.replace(**overrides)
    cls.check_config(config)

    # Per-step jobs share one workload built up front; run jobs build
    # theirs per episode, as every ``Kernel.run`` repeat does.
    state = instance.setup(config) if per_step else None

    def new_job() -> SessionJob:
        return SessionJob(instance, config, state, whole_episode=not per_step)

    if period_ms is None:
        defaults = rt_defaults(cls.name)
        period_ms = defaults.step_period_ms if per_step else defaults.period_ms
    calibrated = period_ms is None or period_ms <= 0.0
    period_s = calibrate_period_s(new_job()) if calibrated else period_ms / 1e3
    deadline_s = period_s if deadline_ms is None else deadline_ms / 1e3

    unloaded = new_job()
    conditions: Dict[str, Any] = {
        "unloaded": run_condition(
            unloaded, period_s, deadline_s, jobs, warmup, overrun
        )
    }
    degradation: Optional[Dict[str, float]] = None
    if antagonists > 0:
        with AntagonistPool(antagonists, kind=antagonist_kind):
            loaded = run_condition(
                new_job(), period_s, deadline_s, jobs, warmup, overrun
            )
        loaded["antagonists"] = antagonists
        loaded["antagonist_kind"] = antagonist_kind
        conditions["loaded"] = loaded
        base = conditions["unloaded"]["response_ms"]
        under = loaded["response_ms"]
        degradation = {
            "p50_ratio": under["p50"] / base["p50"] if base["p50"] else 0.0,
            "p99_ratio": under["p99"] / base["p99"] if base["p99"] else 0.0,
            "miss_rate_delta": (
                loaded["miss_rate"] - conditions["unloaded"]["miss_rate"]
            ),
        }

    return {
        "rt": {
            "kernel": cls.name,
            "stage": cls.stage,
            "granularity": granularity,
            "period_ms": period_s * 1e3,
            "deadline_ms": deadline_s * 1e3,
            "jobs": jobs,
            "warmup": warmup,
            "overrun": overrun,
            "smoke": smoke,
            "calibrated": calibrated,
            "antagonists": antagonists,
            "antagonist_kind": antagonist_kind if antagonists else None,
            "config": config.describe(),
            "steps_per_episode": unloaded.session.total_steps,
        },
        "conditions": conditions,
        "degradation": degradation,
    }
