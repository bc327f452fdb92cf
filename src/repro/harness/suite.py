"""End-to-end suite execution (``rtrbench suite``).

Runs the suite-level workloads the paper reports — the Table I
characterization of all 16 kernels, the hot-path perf bench, the
Fig. 21 scale comparison — plus periodic real-time tasks for a fast
kernel subset (:mod:`repro.rt`), as one flat task list dispatched
through :func:`repro.harness.parallel.map_tasks`:

* every kernel / bench phase / sweep point is an isolated task; one that
  raises or hangs becomes a failure row in the report while the rest of
  the suite completes (the pool respawns lost workers);
* workload setup goes through the content-keyed cache
  (:mod:`repro.envs.cache`), whose on-disk layer every forked worker
  reads; with ``jobs > 1`` the parent orders dispatch longest-first
  using per-task durations from the previous run record;
* the serial baseline is opt-in (``baseline=True`` runs the task list a
  second time, inline) or derived from the latest comparable serial
  record in the result store; either way the run cross-checks per-task
  fingerprints (operation counters — the timing-free part of each
  result) against the baseline, the suite's determinism guarantee.

``run_suite`` returns a machine-readable report with per-task ROI,
queue-wait, and execution time, cache hit/miss accounting, wall clocks,
and an executor breakdown (worker utilization, dispatch overhead);
``rtrbench suite`` wraps it into a
:class:`~repro.results.record.RunRecord` (``BENCH_suite.json``) whose
measurements — ``suite.failures``, ``suite.parallel_speedup``,
``determinism.match``, ``cache.hit_speedup``, per-task ROI times — feed
the declarative suite gates in :data:`repro.results.gates.DEFAULT_GATES`
(the successors of the ``check_suite_floors`` checker that used to live
here).
"""

from __future__ import annotations

import fnmatch
import hashlib
import json
import time
from typing import Any, Dict, List, Optional, Sequence

from repro.harness.parallel import TaskResult, derive_seed, map_tasks

#: Fast kernels for ``--smoke`` runs (sub-second at default configs).
SMOKE_KERNELS = (
    "02.ekfslam",
    "11.sym-blkw",
    "12.sym-fext",
    "13.dmp",
    "15.cem",
    "16.bo",
)

#: Kernels scheduled as periodic rt tasks alongside characterization,
#: as ``(kernel, granularity)`` pairs.  ``"run"`` granularity releases
#: full kernel runs as jobs, so only fast kernels qualify — the suite's
#: job is to exercise the rt pipeline, not to time every kernel twice.
#: ``"step"`` granularity releases single iterations on a persistent
#: session, which is how slow kernels (pfl, mpc) become rt-schedulable;
#: their per-job cost is one scan update / control tick.  ``rtrbench
#: rt`` covers the rest on demand.
RT_SUITE_KERNELS = (
    ("13.dmp", "run"),
    ("15.cem", "run"),
    ("16.bo", "run"),
    ("01.pfl", "step"),
    ("14.mpc", "step"),
)
RT_SUITE_KERNELS_SMOKE = (
    ("13.dmp", "run"),
    ("15.cem", "run"),
    ("13.dmp", "step"),
)

#: Measured jobs per rt task, full and ``--smoke``.
RT_SUITE_JOBS = 25
RT_SUITE_JOBS_SMOKE = 8


def _fingerprint(payload: Any) -> str:
    """Short stable digest of a task's timing-free output."""
    text = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def suite_tasks(
    smoke: bool = False,
    seed: int = 7,
    kernels: Optional[Sequence[str]] = None,
) -> List[Dict[str, Any]]:
    """The suite's task list: characterization + bench + Fig. 21 sweep.

    Each task is a small picklable dict carrying its complete
    configuration, including a content-derived seed where the workload
    takes one — task identity, not worker assignment, decides every
    random stream.
    """
    from repro.experiments.characterization import EXPECTATIONS
    from repro.harness.bench import BENCH_PHASES

    if kernels is None:
        kernels = (
            list(SMOKE_KERNELS)
            if smoke
            else [e.kernel for e in EXPECTATIONS]
        )
    tasks: List[Dict[str, Any]] = [
        {
            "section": "characterize",
            "name": f"characterize:{kernel}",
            "kernel": kernel,
        }
        for kernel in kernels
    ]
    tasks.extend(
        {
            "section": "bench",
            "name": f"bench:{phase}",
            "phase": phase,
            "smoke": smoke,
            "seed": derive_seed(seed, "bench", phase) % 2**31,
        }
        for phase in BENCH_PHASES
    )
    scales = [1, 2] if smoke else [1, 2, 4, 8]
    educational_max_scale = 1 if smoke else 2
    tasks.extend(
        {
            "section": "fig21",
            "name": f"fig21:x{scale}",
            "scale": scale,
            "educational_max_scale": educational_max_scale,
        }
        for scale in scales
    )
    tasks.extend(
        {
            "section": "rt",
            "name": (
                f"rt:{kernel}"
                if granularity == "run"
                else f"rt:{kernel}:step"
            ),
            "kernel": kernel,
            "granularity": granularity,
            "smoke": smoke,
            "jobs": RT_SUITE_JOBS_SMOKE if smoke else RT_SUITE_JOBS,
        }
        for kernel, granularity in (
            RT_SUITE_KERNELS_SMOKE if smoke else RT_SUITE_KERNELS
        )
    )
    return tasks


def run_suite_task(task: Dict[str, Any]) -> Dict[str, Any]:
    """Execute one suite task (worker-process entry); returns a report row.

    The row carries ROI/setup wall clock, a timing-free ``fingerprint``
    (operation counters / deterministic work counts) for determinism
    checks, section-specific detail, and the *delta* of this process's
    cache statistics attributable to the task.
    """
    from repro.envs.cache import default_cache

    stats = default_cache().stats
    before = stats.as_dict()
    section = task["section"]
    if section == "characterize":
        from repro.experiments.characterization import (
            characterize_kernel_by_name,
        )

        row = characterize_kernel_by_name(task["kernel"])
        payload: Dict[str, Any] = {
            "roi_s": row.roi_time,
            "setup_s": row.setup_time,
            "fingerprint": _fingerprint(row.counters),
            "detail": {
                "stage": row.stage,
                "dominant_phase": row.dominant_phase,
                "combined_share": row.combined_share,
                "matches_paper": row.matches_paper,
                "counters": row.counters,
            },
        }
    elif section == "bench":
        from repro.harness.bench import BENCH_PHASES

        metrics = BENCH_PHASES[task["phase"]](
            smoke=task["smoke"], seed=task["seed"]
        )
        payload = {
            "roi_s": metrics["reference_s"] + metrics["vectorized_s"],
            "setup_s": 0.0,
            "fingerprint": _fingerprint(metrics["ops"]),
            "detail": metrics,
        }
    elif section == "rt":
        from repro.rt.run import run_rt

        report = run_rt(
            task["kernel"],
            period_ms=0,  # auto-calibrate: suite runs on unknown machines
            jobs=task["jobs"],
            smoke=task["smoke"],
            granularity=task.get("granularity", "run"),
        )
        unloaded = report["conditions"]["unloaded"]
        payload = {
            "roi_s": unloaded["busy_s"],
            "setup_s": 0.0,
            # Timing-only task: no deterministic counters to fingerprint.
            "fingerprint": None,
            "detail": {
                "granularity": report["rt"]["granularity"],
                "period_ms": report["rt"]["period_ms"],
                "deadline_ms": report["rt"]["deadline_ms"],
                "miss_rate": unloaded["miss_rate"],
                "response_p50_ms": unloaded["response_ms"]["p50"],
                "response_p99_ms": unloaded["response_ms"]["p99"],
                "jitter_p99_ms": unloaded["jitter_ms"]["p99"],
                "slo": report["slo"]["verdict"],
            },
        }
    elif section == "fig21":
        from repro.experiments.fig21_comparison import run_fig21_point

        point = run_fig21_point(
            task["scale"], task["educational_max_scale"]
        )
        payload = {
            "roi_s": point.optimized_time,
            "setup_s": 0.0,
            # Timing-only task: no deterministic counters to fingerprint.
            "fingerprint": None,
            "detail": {
                "scale": point.scale,
                "optimized_s": point.optimized_time,
                "educational_s": point.educational_time,
                "speedup": point.speedup,
            },
        }
    else:
        raise ValueError(f"unknown suite task section {section!r}")
    after = stats.as_dict()
    payload["cache"] = {
        # Scalar counters only: ``per_category`` nests a dict and is a
        # process-wide observability breakdown, not a per-task delta.
        key: after[key] - before.get(key, 0)
        for key in after
        if not isinstance(after[key], dict)
    }
    return payload


def _cache_probe(smoke: bool = False, seed: int = 7) -> Dict[str, Any]:
    """Measure cold-build vs cache-hit setup time for a suite workload.

    Uses the pfl building map (the suite's most expensive procedural
    artifact): one bypassed build for the cold number, then a cached call
    served from the warmed cache for the hit number.
    """
    from repro.envs.mapgen import wean_hall_like

    if smoke:
        params = dict(rows=160, cols=200, resolution=0.25, seed=seed)
    else:
        params = dict(rows=320, cols=400, resolution=0.125, seed=seed)
    t0 = time.perf_counter()
    wean_hall_like.build_uncached(**params)
    cold_s = time.perf_counter() - t0
    wean_hall_like(**params)  # warm both cache layers
    t0 = time.perf_counter()
    wean_hall_like(**params)
    warm_s = time.perf_counter() - t0
    return {
        "workload": "wean_hall_like",
        "params": params,
        "cold_build_s": cold_s,
        "warm_hit_s": warm_s,
        "hit_speedup": cold_s / warm_s if warm_s > 0 else float("inf"),
    }


def _rows(results: Sequence[TaskResult]) -> List[Dict[str, Any]]:
    """TaskResults -> report rows (failure rows keep the worker traceback).

    Each row carries the executor's per-task accounting alongside the
    task payload: ``exec_s`` (worker-measured execution), ``wall_s``
    (parent-observed dispatch-to-result, so ``wall_s - exec_s`` is the
    dispatch overhead), ``queue_wait_s`` (time spent scheduled but not
    yet dispatched), and ``worker`` (which pool worker ran it).
    """
    rows = []
    for result in results:
        row: Dict[str, Any] = {
            "task": result.name,
            "section": result.name.split(":", 1)[0],
            "ok": result.ok,
            "wall_s": result.duration,
            "timed_out": result.timed_out,
        }
        if result.ok:
            row.update(result.value)
        else:
            row["error"] = result.error
        row["exec_s"] = result.exec_s
        row["queue_wait_s"] = result.queue_wait_s
        row["worker"] = result.worker_id
        rows.append(row)
    return rows


def _aggregate_cache(rows: Sequence[Dict[str, Any]]) -> Dict[str, float]:
    """Sum the per-task cache deltas reported by the workers."""
    total: Dict[str, float] = {}
    for row in rows:
        for key, value in (row.get("cache") or {}).items():
            total[key] = total.get(key, 0) + value
    return total


def filter_tasks(
    tasks: Sequence[Dict[str, Any]], pattern: Optional[str]
) -> List[Dict[str, Any]]:
    """Select tasks whose name matches a glob (``None`` keeps everything).

    Matches the full task name (``characterize:04.pp2d``) and, for
    convenience, the bare kernel/point suffix after the section colon —
    so ``--filter 'rt:*'``, ``--filter '*pp2d*'`` and ``--filter pp2d``
    all do what they look like.  Raises ``ValueError`` when the pattern
    selects nothing, so a typo cannot silently run an empty suite.
    """
    if pattern is None:
        return list(tasks)
    selected = [
        task
        for task in tasks
        if fnmatch.fnmatchcase(task["name"], pattern)
        or fnmatch.fnmatchcase(task["name"].split(":", 1)[-1], pattern)
    ]
    if not selected:
        names = ", ".join(t["name"] for t in tasks)
        raise ValueError(
            f"--filter {pattern!r} matches no suite tasks (have: {names})"
        )
    return selected


def _task_priorities(
    tasks: Sequence[Dict[str, Any]], store: Any
) -> Optional[List[float]]:
    """Per-task duration hints from the newest stored suite record.

    Feeds longest-first scheduling: a task's priority is its execution
    time the last time the suite ran (``tasks.<name>.exec_s``, falling
    back to ``wall_s`` for older records), 0.0 when unknown.  Returns
    ``None`` — input order — when no record knows any of these tasks.
    """
    if store is None:
        return None
    try:
        record = store.latest("suite")
    except Exception:
        return None
    if record is None:
        return None
    priorities: List[float] = []
    known = 0
    for task in tasks:
        name = task["name"]
        measurement = record.measurements.get(
            f"tasks.{name}.exec_s"
        ) or record.measurements.get(f"tasks.{name}.wall_s")
        if measurement is None:
            priorities.append(0.0)
        else:
            priorities.append(float(measurement.value))
            known += 1
    return priorities if known else None


def _find_serial_baseline(
    store: Any, names: Sequence[str], smoke: bool, seed: int
) -> Optional[Dict[str, Any]]:
    """Newest stored record usable as a serial baseline for this run.

    Comparable means: same smoke mode, same seed, the exact same task
    list, and no failed rows.  A ``jobs <= 1`` record contributes its
    own wall clock; a parallel record is usable only when it measured an
    inline serial pass *and* that pass matched fingerprints (which makes
    its stored per-task fingerprints valid serial fingerprints too).
    Returns ``{"serial_wall_s", "source", "fingerprints"}`` or ``None``.
    """
    if store is None:
        return None
    want = sorted(names)
    try:
        history = store.history("suite")
    except Exception:
        return None
    for path in reversed(history):
        try:
            record = store.load(path)
        except Exception:
            continue
        detail = record.detail or {}
        suite = detail.get("suite") or {}
        if bool(suite.get("smoke", False)) != bool(smoke):
            continue
        if suite.get("seed") != seed:
            continue
        rows = detail.get("tasks") or []
        if sorted(row.get("task") for row in rows) != want:
            continue
        if any(not row.get("ok") for row in rows):
            continue
        if (suite.get("jobs") or 1) <= 1:
            serial_wall = suite.get("wall_s")
        else:
            serial_wall = suite.get("serial_wall_s")
            if not (detail.get("determinism") or {}).get("matches"):
                continue
        if not serial_wall:
            continue
        return {
            "serial_wall_s": float(serial_wall),
            "source": getattr(record, "run_id", path),
            "fingerprints": {
                row["task"]: row.get("fingerprint") for row in rows
            },
        }
    return None


def _fingerprint_mismatches(
    results: Sequence[TaskResult], expected: Dict[str, Any]
) -> List[str]:
    """Task names whose fingerprint differs from the expected mapping.

    Tasks without a deterministic fingerprint on either side (timing-only
    sections, failed rows) are skipped — they carry no evidence.
    """
    mismatches = []
    for result in results:
        if not result.ok:
            continue
        ours = result.value.get("fingerprint")
        theirs = expected.get(result.name)
        if ours is not None and theirs is not None and ours != theirs:
            mismatches.append(result.name)
    return mismatches


def run_suite(
    jobs: int = 1,
    smoke: bool = False,
    seed: int = 7,
    kernels: Optional[Sequence[str]] = None,
    timeout: Optional[float] = None,
    baseline: bool = False,
    task_filter: Optional[str] = None,
    results_dir: Optional[str] = None,
) -> Dict[str, Any]:
    """Run the whole suite and return the ``BENCH_suite.json`` payload.

    With ``jobs > 1`` the task list runs once on a persistent worker
    pool, scheduled longest-first when a previous run record knows the
    task durations; workers read cached workloads from the cache's disk
    layer.  The serial
    comparison is **opt-in**: ``baseline=True`` re-runs the task list
    inline (doubling wall time) and cross-checks fingerprints; otherwise
    the comparison is derived from the latest comparable serial record
    in the result store, and when none exists ``parallel_speedup`` is
    ``null`` with ``parallel_speedup_reason`` saying why.
    ``task_filter`` selects a task subset by name glob (see
    :func:`filter_tasks`).
    """
    tasks = filter_tasks(
        suite_tasks(smoke=smoke, seed=seed, kernels=kernels), task_filter
    )
    names = [t["name"] for t in tasks]

    store = None
    try:
        from repro.results import ResultStore

        store = ResultStore(results_dir)
    except Exception:  # pragma: no cover - results layer unavailable
        store = None
    priorities = _task_priorities(tasks, store)

    pool_stats: Dict[str, Any] = {}
    t0 = time.perf_counter()
    results = map_tasks(
        run_suite_task,
        tasks,
        jobs=jobs,
        timeout=timeout,
        names=names,
        priorities=priorities,
        pool_stats=pool_stats,
    )
    wall_s = time.perf_counter() - t0
    rows = _rows(results)

    serial_wall_s = None
    speedup_reason: Optional[str] = None
    baseline_source: Optional[str] = None
    determinism: Dict[str, Any] = {"checked": False}
    if jobs > 1:
        if baseline:
            t0 = time.perf_counter()
            serial_results = map_tasks(
                run_suite_task, tasks, jobs=1, names=names
            )
            serial_wall_s = time.perf_counter() - t0
            baseline_source = "inline"
            expected = {
                r.name: r.value.get("fingerprint")
                for r in serial_results
                if r.ok
            }
            mismatches = _fingerprint_mismatches(results, expected)
            determinism = {
                "checked": True,
                "matches": not mismatches,
                "mismatches": mismatches,
                "source": "inline",
            }
        else:
            found = _find_serial_baseline(
                store, names, smoke=smoke, seed=seed
            )
            if found is None:
                speedup_reason = (
                    "no comparable serial baseline in the result "
                    "store; run once with --baseline (or -j 1) to "
                    "record one"
                )
            else:
                serial_wall_s = found["serial_wall_s"]
                baseline_source = f"record:{found['source']}"
                mismatches = _fingerprint_mismatches(
                    results, found["fingerprints"]
                )
                determinism = {
                    "checked": True,
                    "matches": not mismatches,
                    "mismatches": mismatches,
                    "source": baseline_source,
                }
    else:
        speedup_reason = "serial run (jobs <= 1): nothing to compare"

    ok_results = [r for r in results if r.ok]
    exec_total = sum(r.exec_s for r in ok_results)
    duration_total = sum(r.duration for r in ok_results)
    dispatch_overhead_s = sum(
        max(0.0, r.duration - r.exec_s) for r in ok_results
    )
    workers = pool_stats.get("workers") or 1
    probe = _cache_probe(smoke=smoke, seed=seed)
    return {
        "suite": {
            "jobs": jobs,
            "smoke": smoke,
            "seed": seed,
            "filter": task_filter,
            "task_count": len(tasks),
            "failures": sum(1 for row in rows if not row["ok"]),
            "wall_s": wall_s,
            "serial_wall_s": serial_wall_s,
            "parallel_speedup": (
                serial_wall_s / wall_s
                if serial_wall_s and wall_s > 0
                else None
            ),
            "parallel_speedup_reason": speedup_reason,
            "baseline_source": baseline_source,
            "dispatch_overhead_s": dispatch_overhead_s,
            "dispatch_overhead_share": (
                dispatch_overhead_s / duration_total
                if duration_total > 0
                else None
            ),
            "worker_utilization": (
                exec_total / (workers * wall_s)
                if workers and wall_s > 0
                else None
            ),
            "executor": {
                "workers": workers,
                "respawns": pool_stats.get("respawns", 0),
                "crashes": pool_stats.get("crashes", 0),
                "timeouts": pool_stats.get("timeouts", 0),
                "scheduling": (
                    "longest-first" if priorities else "input-order"
                ),
            },
        },
        "cache": {
            "probe": probe,
            "workers": _aggregate_cache(rows),
        },
        "determinism": determinism,
        "tasks": rows,
    }
