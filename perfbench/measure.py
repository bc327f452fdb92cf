"""The measuring run (end-to-end metrics) and the traced run (per-layer).

Both return ``(result, diagnostics)``: ``result`` is the JSON object the
benchmark prints last, ``diagnostics`` the context a reader needs to
interpret it (backends, thread pools, host speed, failure share).
"""

from __future__ import annotations

import math
import os
import resource
import statistics
import time
from typing import Any, Dict, List, Tuple

from repro.harness.profiler import PhaseProfiler

import tracing
import workloads
from workloads import JobLog

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

Metrics = Dict[str, Dict[str, Any]]


def _metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def _result(log: JobLog, metrics: Metrics) -> Dict[str, Any]:
    finite = all(math.isfinite(m["value"]) for m in metrics.values())
    return {
        "correct": log.failed == 0 and finite,
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": metrics,
    }


def _diagnostics(
    name: str, seed: int, episodes: List[workloads.Episode], log: JobLog,
    calib_before: float, **extra: Any,
) -> Dict[str, Any]:
    return {
        "workload": name,
        "seed": seed,
        "backends": workloads.backends(episodes),
        "episodes": [ep.label for ep in episodes],
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "host.calib_ms": {
            "before": calib_before,
            "after": workloads.calibrate_host(),
        },
        "fail_frac": log.failed / max(1, log.attempted),
        **extra,
    }


def measure_run(
    name: str, seed: int, seconds: float, tmp_root: str
) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """End-to-end metrics of one closed-loop run, tracing off.

    Every time is scaled to the reference host speed
    (:data:`workloads.PROBE_REF_MS`).  Throughput and latency percentiles
    describe the typical pass (:func:`workloads.typical_pass`), and
    ``setup_s`` is the median of the cold builds made between passes.
    """
    calib_before = workloads.calibrate_host()
    episodes = workloads.episodes_for(name, seed)
    workloads.set_up(episodes, tmp_root)
    workloads.warm_up(episodes)
    passes, builds = workloads.closed_loop(episodes, seconds, tmp_root)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    latencies, between_s = workloads.typical_pass(passes)
    log = JobLog()
    for p in passes:
        log.latencies += p.log.latencies
        log.failed += p.log.failed
    metrics = {
        "setup_s": _metric(statistics.median(builds), "s"),
        "jobs_per_s": _metric(workloads.jobs_per_s(latencies, between_s), "1/s"),
        "job_ms.p50": _metric(workloads.percentile_ms(latencies, 50), "ms"),
        "job_ms.p90": _metric(workloads.percentile_ms(latencies, 90), "ms"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
    }
    scales = [s for p in passes for s in p.scales]
    diagnostics = _diagnostics(
        name, seed, episodes, log, calib_before, passes=len(passes),
        setup_builds=len(builds), unscaled_job_ms_p50=1e3 * statistics.median(
            log.latencies
        ),
        **{"host.scale": {
            "min": min(scales), "median": statistics.median(scales),
            "max": max(scales),
        }},
    )
    return _result(log, metrics), diagnostics


def _timed_episode(
    ep: workloads.Episode, profiler: PhaseProfiler, log: JobLog,
    tracer: Any = None,
) -> float:
    t0 = time.perf_counter()
    workloads.run_episode(ep, profiler, log, tracer)
    return time.perf_counter() - t0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def trace_run(
    name: str, seed: int, tmp_root: str, trace_path: str
) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Per-layer metrics from one traced pass over the episode pool.

    Each episode runs three times back to back: untraced, traced, and
    untraced under :class:`tracing.NullProfiler`.  The traced pass gives
    the spans and the counters (one whole pool, so counts repeat exactly
    for a seed); the other two price tracing and the program's profiler.
    """
    calib_before = workloads.calibrate_host()
    episodes = workloads.episodes_for(name, seed)
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        cache_stats = workloads.set_up(episodes, tmp_root)
    workloads.warm_up(episodes)
    log = JobLog()
    profiler = PhaseProfiler()
    plain_s = traced_s = null_s = 0.0
    for ep in episodes:
        plain_s += _timed_episode(ep, PhaseProfiler(), log)
        with tracing.instrument(tracer):
            traced_s += _timed_episode(ep, profiler, log, tracer)
        null_s += _timed_episode(ep, tracing.NullProfiler(), log)
    tracer.dump(trace_path)

    self_s = tracing.self_times(tracer.spans)
    counters = profiler.counters
    counts = tracer.counts

    def seconds(layer: str) -> Dict[str, Any]:
        return _metric(self_s.get(layer, 0.0), "s")

    def count(value: int) -> Dict[str, Any]:
        return _metric(int(value), "count")

    expansions = counters.get("astar_expansions", 0)
    metrics = {
        "raycast.self_s": seconds("raycast"),
        "raycast.calls": count(tracer.span_count("raycast")),
        "raycast.cell_checks": count(counters.get("raycast_cell_checks", 0)),
        "raycast.cells_per_ray": _metric(
            _ratio(counters.get("raycast_cell_checks", 0), counts["raycast.rays"]),
            "cells/ray",
        ),
        "icp.self_s": seconds("icp"),
        "icp.nn_pairs": count(counters.get("nn_node_visits", 0)),
        "icp.svd_solves": count(counters.get("svd_solves", 0)),
        "recon.integrate.self_s": seconds("recon.integrate"),
        "fusion.points": count(counters.get("fused_points", 0)),
        "collision.self_s": seconds("collision"),
        "collision.cell_checks": count(counters.get("collision_cell_checks", 0)),
        "collision.mask_use_ratio": _metric(
            _ratio(counts["search2d.expansions"], counts["collision.poses"]),
            "ratio",
        ),
        "search.self_s": seconds("search"),
        "search.expansions": count(expansions),
        "search.pushes": count(counters.get("search_pushes", 0)),
        "search.pops": count(counters.get("search_pops", 0)),
        "search.pushes_per_expansion": _metric(
            _ratio(counters.get("search_pushes", 0), expansions), "ratio"
        ),
        "mpc.self_s": seconds("mpc"),
        "mpc.riccati_steps": count(counters.get("riccati_steps", 0)),
        "runner.step.self_s": seconds("runner.step"),
        "runner.run_roi.self_s": seconds("runner.run_roi"),
        "profiler.overhead_frac": _metric(_ratio(plain_s - null_s, null_s), "ratio"),
        "mapgen.self_s": seconds("mapgen"),
        "cache.misses": count(cache_stats.misses),
        "cache.hits": count(cache_stats.hits),
        "cache.build_s": _metric(cache_stats.build_time_s, "s"),
        "trace.overhead_frac": _metric(_ratio(traced_s - plain_s, plain_s), "ratio"),
    }
    diagnostics = _diagnostics(
        name, seed, episodes, log, calib_before,
        pass_s={"untraced": plain_s, "traced": traced_s, "null_profiler": null_s},
        spans=len(tracer.spans),
        trace_file=os.path.basename(trace_path),
    )
    return _result(log, metrics), diagnostics
