"""The two closed-loop workloads and the job loop that drives them.

Every workload is a fixed pool of episodes.  One client issues the next
job as soon as the previous one returns: a job is one
``StepSession.step()`` for the steppable kernels (pfl, srec, mpc) and one
``Kernel.run_roi`` query for the grid planners (pp2d, pp3d).  The run
seed picks the episode each pass over the pool starts with, so every
seed does the same work and the golden planner outputs stay valid.
Each job's output is checked; a failed check counts the job as failed.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.control.mpc import MpcConfig, MpcKernel
from repro.envs.cache import CacheStats, WorkloadCache, set_default_cache
from repro.harness.config import KernelConfig
from repro.harness.profiler import PhaseProfiler
from repro.harness.runner import Kernel, StepSession
from repro.perception.particle_filter import PflConfig, PflKernel
from repro.perception.scene_recon import SrecConfig, SrecKernel
from repro.planning.pp2d import Pp2dConfig, Pp2dKernel
from repro.planning.pp3d import Pp3dConfig, Pp3dKernel

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDENS_PATH = os.path.join(HERE, "goldens.json")

#: Final pfl pose error allowed, meters.  Every pool episode converges
#: to < 0.35 m; a filter locked onto the wrong corridor is off by > 10 m.
PFL_TOLERANCE_M = 1.0
#: Per-frame srec camera translation error allowed, meters (pool: < 0.08).
SREC_TOLERANCE_M = 0.15
#: Per-tick mpc cross-track error allowed, meters (pool: < 0.31).
MPC_STEP_TOLERANCE_M = 1.0
#: Mean mpc cross-track error over an episode allowed, meters (pool: < 0.12).
MPC_MEAN_TOLERANCE_M = 0.5

#: (map seed, building region) per localize episode: one per region of
#: the paper's five, each a map on which global localization converges.
PFL_EPISODES = ((2, 0), (3, 1), (0, 2), (1, 3), (0, 4))
SREC_SCENE_SEEDS = (0, 1)
SREC_FRAMES = 6
SREC_SCAN_POINTS = 800
PP2D_SEEDS = (0, 1, 2, 3)
PP2D_SIZE = 160
#: pp3d seeds with 43-246 ms queries on the array backend.
PP3D_SEEDS = (1, 5, 7, 10)
MPC_SPEEDS = (6.0, 8.0, 10.0)

#: Cold builds of the pool's inputs run between passes while they have
#: taken less than this share of the timed phase ...
SETUP_SHARE = 0.1
#: ... and at least this many times.
SETUP_MIN_REPS = 5

#: The shared host runs every job up to ~2x slower in phases that last
#: from seconds to many minutes, longer than a run.  So every time the
#: benchmark reports is scaled to a reference host speed: multiplied by
#: PROBE_REF_MS over the time of :func:`probe_host` measured right before
#: and after the work.  PROBE_REF_MS is about the probe's time on a calm
#: 2-vCPU Xeon VM (Sapphire Rapids; 2.8-3.0 ms calm, up to ~6 ms slowed).
PROBE_REF_MS = 3.0
_PROBE_MATRIX = np.eye(4) * 2.0 + 0.1


# -- episodes and checks -----------------------------------------------------


@dataclass
class Episode:
    """One kernel configuration of a workload's pool, with its checks.

    ``step_ok`` checks the session after each step of a steppable kernel;
    ``output_ok`` checks the kernel output at the end of the episode.
    """

    label: str
    kernel: Kernel
    config: KernelConfig
    output_ok: Callable[[Any], bool]
    step_ok: Optional[Callable[[StepSession], bool]] = None
    state: Any = None


def _pfl_step_ok(session: StepSession) -> bool:
    weights = session.payload["pf"].weights
    return bool(np.isfinite(weights).all() and abs(weights.sum() - 1.0) < 1e-6)


def _srec_step_ok(session: StepSession) -> bool:
    return session.payload["pose_errors"][-1] < SREC_TOLERANCE_M


def _mpc_step_ok(session: StepSession) -> bool:
    return session.payload["tracking"].errors[-1] < MPC_STEP_TOLERANCE_M


def load_goldens() -> Dict[str, Dict[str, Any]]:
    """Reference-backend planner outputs, keyed ``<kernel>:<seed>``."""
    with open(GOLDENS_PATH) as fh:
        return json.load(fh)


def _matches_golden(golden: Dict[str, Any]) -> Callable[[Any], bool]:
    def ok(result: Any) -> bool:
        return (
            bool(result.found)
            and result.cost == golden["cost"]
            and result.expansions == golden["expansions"]
        )

    return ok


def grid_configs() -> List[Tuple[str, Kernel, KernelConfig]]:
    """The grid queries, pp2d and pp3d alternating (any backend)."""
    queries: List[Tuple[str, Kernel, KernelConfig]] = []
    for s2, s3 in zip(PP2D_SEEDS, PP3D_SEEDS):
        queries.append((
            f"04.pp2d:{s2}", Pp2dKernel(),
            Pp2dConfig(seed=s2, rows=PP2D_SIZE, cols=PP2D_SIZE),
        ))
        queries.append((f"05.pp3d:{s3}", Pp3dKernel(), Pp3dConfig(seed=s3)))
    return queries


def _localize() -> List[Episode]:
    return [
        Episode(
            f"01.pfl:map{seed}:region{region}", PflKernel(),
            PflConfig(backend="vectorized", seed=seed, region=region),
            output_ok=lambda out: out["error"] < PFL_TOLERANCE_M,
            step_ok=_pfl_step_ok,
        )
        for seed, region in PFL_EPISODES
    ]


def _reconstruct() -> List[Episode]:
    return [
        Episode(
            f"03.srec:scene{seed}", SrecKernel(),
            SrecConfig(
                backend="vectorized", seed=seed, frames=SREC_FRAMES,
                scan_points=SREC_SCAN_POINTS,
            ),
            output_ok=lambda out: out["final_pose_error"] < SREC_TOLERANCE_M,
            step_ok=_srec_step_ok,
        )
        for seed in SREC_SCENE_SEEDS
    ]


def _grid_plan() -> List[Episode]:
    goldens = load_goldens()
    return [
        Episode(
            label, kernel, config.replace(backend="array"),
            output_ok=_matches_golden(goldens[label]),
        )
        for label, kernel, config in grid_configs()
    ]


def _mpc_track() -> List[Episode]:
    return [
        Episode(
            f"14.mpc:speed{speed:g}", MpcKernel(), MpcConfig(speed=speed),
            output_ok=lambda out: out["mean_error"] < MPC_MEAN_TOLERANCE_M,
            step_ok=_mpc_step_ok,
        )
        for speed in MPC_SPEEDS
    ]


def _interleave(first: List[Episode], second: List[Episode]) -> List[Episode]:
    """``first[0], second[0], first[1], ...``, then the longer list's rest."""
    merged: List[Episode] = []
    for i in range(max(len(first), len(second))):
        merged += first[i:i + 1] + second[i:i + 1]
    return merged


def _localize_track() -> List[Episode]:
    """Short per-tick jobs: pfl scan updates (~10 ms), mpc ticks (~2 ms)."""
    return _interleave(_localize(), _mpc_track())


def _reconstruct_plan() -> List[Episode]:
    """Long jobs: pp2d/pp3d queries and srec frame registrations (40-250 ms)."""
    return _interleave(_grid_plan(), _reconstruct())


#: Workload name -> its episode pool.  Why each exists: BENCHMARK.json.
WORKLOADS: Dict[str, Callable[[], List[Episode]]] = {
    "localize_track": _localize_track,
    "reconstruct_plan": _reconstruct_plan,
}


def episodes_for(name: str, seed: int) -> List[Episode]:
    """The workload's pool, rotated to start at the episode the seed picks."""
    episodes = WORKLOADS[name]()
    first = random.Random(seed).randrange(len(episodes))
    return episodes[first:] + episodes[:first]


def backends(episodes: List[Episode]) -> Dict[str, str]:
    """``{kernel name: backend}`` the episodes run on."""
    return {ep.kernel.name: ep.config.backend for ep in episodes}


# -- setup -------------------------------------------------------------------


def cold_setup(
    episodes: List[Episode], tmp_root: str
) -> Tuple[List[Any], float, CacheStats]:
    """Build every episode's inputs from an empty workload cache.

    Returns the inputs, the wall time of the builds and the cache's
    statistics.  The cache directory is removed afterwards.
    """
    cache_dir = tempfile.mkdtemp(prefix="cache-", dir=tmp_root)
    cache = WorkloadCache(cache_dir=cache_dir)
    set_default_cache(cache)
    try:
        t0 = time.perf_counter()
        states = [ep.kernel.setup(ep.config) for ep in episodes]
        elapsed = time.perf_counter() - t0
    finally:
        set_default_cache(None)
        shutil.rmtree(cache_dir, ignore_errors=True)
    return states, elapsed, cache.stats


def set_up(episodes: List[Episode], tmp_root: str) -> CacheStats:
    """Give every episode its inputs, built from an empty cache."""
    states, _, stats = cold_setup(episodes, tmp_root)
    for ep, state in zip(episodes, states):
        ep.state = state
    return stats


# -- the job loop --------------------------------------------------------------


@dataclass
class JobLog:
    """Latency of every job, and how many failed their check."""

    latencies: List[float] = field(default_factory=list)
    failed: int = 0

    @property
    def attempted(self) -> int:
        """Number of jobs run."""
        return len(self.latencies)

    def add(self, latency: float, ok: bool) -> None:
        """Record one job."""
        self.latencies.append(latency)
        if not ok:
            self.failed += 1


def run_episode(
    ep: Episode,
    profiler: PhaseProfiler,
    log: JobLog,
    tracer: Any = None,
) -> None:
    """Issue every job of one episode back to back.

    Steppable kernels run one ``step()`` per job on a session opened for
    the episode; the last job also carries the check of the episode's
    output.  Other kernels run one ``run_roi`` query as their one job.
    ``tracer.job`` is set to the job id before each job when given.
    """
    clock = time.perf_counter
    if ep.step_ok is None:
        if tracer is not None:
            tracer.job = log.attempted
        t0 = clock()
        output = ep.kernel.run_roi(ep.config, ep.state, profiler)
        latency = clock() - t0
        log.add(latency, ep.output_ok(output))
        return
    session = ep.kernel.open_session(ep.config, ep.state, profiler)
    while not session.exhausted:
        if tracer is not None:
            tracer.job = log.attempted
        t0 = clock()
        session.step()
        latency = clock() - t0
        ok = ep.step_ok(session)
        if session.exhausted:
            ok = ep.output_ok(session.finish()) and ok
        log.add(latency, ok)


def warm_up(episodes: List[Episode]) -> None:
    """Run one untimed episode per kernel so lazy set-up is done."""
    seen = set()
    for ep in episodes:
        if ep.kernel.name not in seen:
            seen.add(ep.kernel.name)
            run_episode(ep, PhaseProfiler(), JobLog())


@dataclass
class Pass:
    """One pass over the whole pool.

    ``scales[i]`` is the host-speed scale of job ``i`` (see
    :func:`host_scale`); ``between_s`` is the scaled time spent between
    jobs, opening and finishing sessions.
    """

    log: JobLog
    scales: List[float]
    between_s: float


def closed_loop(
    episodes: List[Episode], seconds: float, tmp_root: str
) -> Tuple[List[Pass], List[float]]:
    """Pass over the whole pool again and again until ``seconds`` have passed.

    The host-speed probe runs before every episode and after the last,
    so each episode is scaled by the probes on both sides of it.  After a
    pass, the pool's inputs are built once more from an empty cache (and
    thrown away) while builds have taken less than :data:`SETUP_SHARE`
    of the time so far, or fewer than :data:`SETUP_MIN_REPS` ran.  The
    builds thus meet the same host phases as the jobs.  Returns the
    passes and the scaled wall time of each build.
    """
    clock = time.perf_counter
    passes: List[Pass] = []
    builds: List[float] = []
    profiler = PhaseProfiler()
    start = clock()
    while True:
        log = JobLog()
        scales: List[float] = []
        between_s = 0.0
        before = probe_host()
        for ep in episodes:
            first = log.attempted
            t0 = clock()
            run_episode(ep, profiler, log)
            wall_s = clock() - t0
            after = probe_host()
            scale = host_scale(before, after)
            before = after
            scales += [scale] * (log.attempted - first)
            between_s += (wall_s - sum(log.latencies[first:])) * scale
        passes.append(Pass(log, scales, between_s))
        if len(builds) < SETUP_MIN_REPS or sum(builds) < SETUP_SHARE * (clock() - start):
            before = probe_host()
            build_s = cold_setup(episodes, tmp_root)[1]
            builds.append(build_s * host_scale(before, probe_host()))
        if clock() - start >= seconds and len(builds) >= SETUP_MIN_REPS:
            return passes, builds


def typical_pass(passes: List[Pass]) -> Tuple[List[float], float]:
    """The typical pass: each job's median scaled latency over the passes,
    and the median scaled time spent between jobs.

    Every pass issues the same jobs in the same order, so job ``i`` of one
    pass repeats job ``i`` of every other; the per-job median sheds the
    passes a slow host phase or a preemption hit.
    """
    per_job = zip(*(
        [latency * scale for latency, scale in zip(p.log.latencies, p.scales)]
        for p in passes
    ))
    latencies = [statistics.median(samples) for samples in per_job]
    return latencies, statistics.median(p.between_s for p in passes)


def jobs_per_s(latencies: List[float], between_s: float) -> float:
    """Jobs per second of a pass whose jobs took ``latencies`` and which
    spent ``between_s`` opening and finishing sessions."""
    return len(latencies) / (sum(latencies) + between_s)


def percentile_ms(latencies: List[float], q: int) -> float:
    """The ``q``-th percentile of ``latencies`` (seconds), in ms."""
    cuts = statistics.quantiles(latencies, n=100, method="inclusive")
    return cuts[q - 1] * 1e3


def calibrate_host(iterations: int = 300_000) -> float:
    """Wall ms of a fixed pure-Python plus numpy loop (host-speed probe)."""
    t0 = time.perf_counter()
    total = 0
    for i in range(iterations):
        total += i * i
    values = np.arange(1000.0)
    for _ in range(200):
        values = np.sqrt(values * values + 1.0)
    return (time.perf_counter() - t0) * 1e3


def probe_host() -> float:
    """Wall ms of the short host-speed probe run around every episode and
    build: a pure-Python loop, tiny linear solves like a control tick's,
    and arithmetic over mid-size arrays."""
    t0 = time.perf_counter()
    total = 0
    for i in range(15_000):
        total += i * i
    rhs = np.ones(4)
    for _ in range(150):
        x = np.linalg.solve(_PROBE_MATRIX, rhs)
        np.clip(_PROBE_MATRIX @ x, 0.0, 1.0).sum()
    values = np.arange(20_000.0)
    for _ in range(20):
        values = np.sqrt(values * values + 1.0)
    return (time.perf_counter() - t0) * 1e3


def host_scale(before_ms: float, after_ms: float) -> float:
    """Factor that brings a time measured between two probes to the
    reference host speed: :data:`PROBE_REF_MS` over the probes' mean."""
    return PROBE_REF_MS / (0.5 * (before_ms + after_ms))
