"""Perf-regression harness for the vectorized hot-path backends.

The suite's dominant phases — ray casting (67-78% of pfl), footprint
collision checking (>65% of pp2d), and nearest-neighbor correspondence
(>68% of srec's ICP) — each have a ``reference`` implementation (the
scalar/loop code the characterization uses) and a ``vectorized`` numpy
backend.  This module times both on fixed representative workloads,
verifies that the backends agree on every workload before trusting the
timings, and asserts per-phase speedup floors so a regression in the
vectorized paths fails loudly instead of silently eroding.

``rtrbench bench`` drives it from the command line and writes
``BENCH_hotpaths.json`` as a schema-versioned
:class:`~repro.results.record.RunRecord` whose measurements are the flat
``<phase>.speedup`` / ``<phase>.reference_s`` / ``<phase>.ops`` names the
gate engine addresses; the raw ``phase -> metrics`` mapping rides in the
record's ``detail``.  ``ops`` is the architecture-independent work count
for the workload (boundary crossings / cells checked / candidate
comparisons) and is deterministic for a given seed; the timings are
wall-clock minima over interleaved repeats, the most load-robust point
estimate on a shared machine.  The per-phase speedup floors that used to
live here as ``check_floors`` are now gate declarations in
:data:`repro.results.gates.DEFAULT_GATES`.
"""

from __future__ import annotations

import fnmatch
import gc
import time
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.envs.costmap import synthetic_costmap
from repro.envs.mapgen import campus_like_3d, wean_hall_like
from repro.geometry.collision import (
    footprint_points,
    oriented_footprint_collides,
    oriented_footprints_collide_batch,
)
from repro.geometry.kdtree import BatchKDTree, scan_nearest
from repro.geometry.raycast import (
    cast_rays_dda_batch,
    cast_rays_dda_lockstep,
    load_core,
    ray_slices,
)
from repro.planning.pp3d import far_apart_free_voxels, plan_3d
from repro.search.dijkstra import backward_dijkstra_grid
from repro.search.grid_core import dijkstra_grid_bucketed
from repro.results import (
    RunRecord,
    capture_environment,
    pinned_thread_env,
    record_from_bench,
)


def _interleaved_min(
    reference: Callable[[], object],
    vectorized: Callable[[], object],
    repeats: int,
) -> tuple:
    """Min wall and CPU clock of each callable over alternating repeats.

    Alternation exposes both backends to the same machine-load episodes;
    the minimum discards the repeats that lost the CPU to other work.
    The garbage collector is paused across the timed sections so a cycle
    collection landing inside one backend's window cannot skew the
    comparison; ``process_time`` is recorded alongside ``perf_counter``
    so wall-vs-CPU divergence (scheduler pressure, denormal stalls) is
    visible in the report.

    Returns ``(ref_wall, vec_wall, ref_cpu, vec_cpu)`` minima in seconds.
    """
    ref_times: List[float] = []
    vec_times: List[float] = []
    ref_cpu: List[float] = []
    vec_cpu: List[float] = []
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            c0 = time.process_time()
            t0 = time.perf_counter()
            reference()
            ref_times.append(time.perf_counter() - t0)
            ref_cpu.append(time.process_time() - c0)
            c0 = time.process_time()
            t0 = time.perf_counter()
            vectorized()
            vec_times.append(time.perf_counter() - t0)
            vec_cpu.append(time.process_time() - c0)
    finally:
        if gc_was_enabled:
            gc.enable()
    return min(ref_times), min(vec_times), min(ref_cpu), min(vec_cpu)


# -- workloads -----------------------------------------------------------------


def bench_raycast(smoke: bool = False, seed: int = 7) -> Dict[str, float]:
    """Time both ray casters on a particle-filter-shaped batch.

    Both run the exact traversal, so they must return the same distances
    and count the same cell checks before the timings count.  Full mode:
    256 particles x 60 beams over a 320x400 building map at 0.125 m
    resolution (a standard indoor mapping resolution; the work, one check
    per cell crossed, grows as 1/resolution).  Rays are capped at 12 m
    like the pfl lidar.  ``slices`` is the number of CPU slices each
    timed call of the compiled caster cut its batch into
    (:func:`~repro.geometry.raycast.ray_slices`), so a record tells a
    one-core speedup from a multi-core one.
    """
    if smoke:
        grid = wean_hall_like(rows=160, cols=200, resolution=0.25, seed=seed)
        n_particles, n_beams, repeats = 64, 30, 2
    else:
        grid = wean_hall_like(rows=320, cols=400, resolution=0.125, seed=seed)
        n_particles, n_beams, repeats = 256, 60, 5
    max_range = 12.0
    rng = np.random.default_rng(42)
    free = np.argwhere(~grid.cells)
    sel = free[rng.integers(0, len(free), n_particles)]
    res = grid.resolution
    ox, oy = grid.origin
    px = (sel[:, 1] + 0.5) * res + ox
    py = (sel[:, 0] + 0.5) * res + oy
    headings = rng.uniform(-np.pi, np.pi, n_particles)
    beams = np.linspace(-np.pi, np.pi, n_beams, endpoint=False)
    xs = np.repeat(px, n_beams)
    ys = np.repeat(py, n_beams)
    angles = (headings[:, None] + beams[None, :]).ravel()

    ref_ops: List[int] = []
    vec_ops: List[int] = []
    load_core()  # the first call in a fresh cache dir compiles the core
    ref_out = cast_rays_dda_lockstep(
        grid, xs, ys, angles, max_range, count=lambda _, k: ref_ops.append(k)
    )
    vec_out = cast_rays_dda_batch(
        grid, xs, ys, angles, max_range, count=lambda _, k: vec_ops.append(k)
    )
    if not (np.array_equal(ref_out, vec_out) and ref_ops == vec_ops):
        raise AssertionError(
            f"raycast backends disagree (cell checks {ref_ops} vs {vec_ops})"
        )
    ref_s, vec_s, ref_cpu, vec_cpu = _interleaved_min(
        lambda: cast_rays_dda_lockstep(grid, xs, ys, angles, max_range),
        lambda: cast_rays_dda_batch(grid, xs, ys, angles, max_range),
        repeats,
    )
    return {
        "reference_s": ref_s,
        "vectorized_s": vec_s,
        "reference_cpu_s": ref_cpu,
        "vectorized_cpu_s": vec_cpu,
        "speedup": ref_s / vec_s,
        "slices": ray_slices(len(xs)),
        "ops": ref_ops[0],
    }


def bench_collision(smoke: bool = False, seed: int = 7) -> Dict[str, float]:
    """Time oriented-footprint checks, scalar loop vs one batched call.

    The workload is pp2d-shaped: the paper's 4.8 m x 1.8 m car footprint
    placed at random free poses of the building map, the same per-pose
    sample points and cell lookups either way.
    """
    grid = wean_hall_like(rows=160, cols=200, resolution=0.25, seed=seed)
    n_poses = 300 if smoke else 2000
    repeats = 2 if smoke else 5
    rng = np.random.default_rng(seed * 7 + 1)
    free = np.argwhere(~grid.cells)
    sel = free[rng.integers(0, len(free), n_poses)]
    res = grid.resolution
    ox, oy = grid.origin
    xs = (sel[:, 1] + rng.random(n_poses)) * res + ox
    ys = (sel[:, 0] + rng.random(n_poses)) * res + oy
    thetas = rng.uniform(-np.pi, np.pi, n_poses)
    body = footprint_points(4.8, 1.8, res)

    def reference() -> np.ndarray:
        return np.array(
            [
                oriented_footprint_collides(grid, x, y, t, body)
                for x, y, t in zip(xs, ys, thetas)
            ]
        )

    def vectorized() -> np.ndarray:
        return oriented_footprints_collide_batch(grid, xs, ys, thetas, body)

    if not np.array_equal(reference(), vectorized()):
        raise AssertionError("collision backends return different verdicts")
    ref_s, vec_s, ref_cpu, vec_cpu = _interleaved_min(
        reference, vectorized, repeats
    )
    return {
        "reference_s": ref_s,
        "vectorized_s": vec_s,
        "reference_cpu_s": ref_cpu,
        "vectorized_cpu_s": vec_cpu,
        "speedup": ref_s / vec_s,
        "ops": n_poses * len(body),
    }


def bench_nn(smoke: bool = False, seed: int = 7) -> Dict[str, float]:
    """Time nearest-neighbor correspondence, srec's two ICP matchers: the
    numpy full scan (``scan_nearest``) vs the compiled kd-tree core
    (``BatchKDTree``, ``geometry/_nn.c``).

    ICP-correspondence-shaped: each of the query points (a subsampled
    scan) finds its nearest model point.  The tree is built outside the
    timed region — ICP builds one per registration but queries it every
    iteration — so this measures the per-iteration inner loop.  The two
    compute distances with the same arithmetic and tie rule, so the
    answers must agree exactly.
    """
    n_target, n_query = (800, 400) if smoke else (3000, 1500)
    repeats = 1 if smoke else 2
    rng = np.random.default_rng(seed * 7 + 2)
    target = rng.random((n_target, 3)) * 4.0
    queries = rng.random((n_query, 3)) * 4.0
    batch_tree = BatchKDTree(target)

    def reference() -> np.ndarray:
        return scan_nearest(queries, target)[1]

    def vectorized() -> np.ndarray:
        return batch_tree.query(queries)[1]

    if not np.array_equal(reference(), vectorized()):
        raise AssertionError("nn backends return different distances")
    ref_s, vec_s, ref_cpu, vec_cpu = _interleaved_min(
        reference, vectorized, repeats
    )
    return {
        "reference_s": ref_s,
        "vectorized_s": vec_s,
        "reference_cpu_s": ref_cpu,
        "vectorized_cpu_s": vec_cpu,
        "speedup": ref_s / vec_s,
        "ops": n_target * n_query,
    }


def bench_search_dijkstra(
    smoke: bool = False, seed: int = 7
) -> Dict[str, float]:
    """Time a full-grid backward-Dijkstra sweep, heapq vs bucketed core.

    This is movtar's heuristic-table recompute (the whole-map cost-to-go
    sweep it reruns whenever the table invalidates), sized up to a large
    costmap where the sweep — not the WA* search — dominates.  The
    ``vectorized`` contestant is the Dial-style bucketed batch engine of
    :mod:`repro.search.grid_core`; both backends must produce the same
    cost-to-go table before the timings are trusted.
    """
    size, repeats = (96, 2) if smoke else (384, 5)
    field = synthetic_costmap(rows=size, cols=size, n_bumps=8, seed=seed)
    free = np.argwhere(~field.obstacles)
    goals = [tuple(int(v) for v in free[0]), tuple(int(v) for v in free[-1])]

    ref_out = backward_dijkstra_grid(field.cost, goals, field.obstacles)
    vec_out = dijkstra_grid_bucketed(field.cost, goals, field.obstacles)
    if not np.array_equal(ref_out, vec_out):
        raise AssertionError("dijkstra backends disagree on cost-to-go")
    ref_s, vec_s, ref_cpu, vec_cpu = _interleaved_min(
        lambda: backward_dijkstra_grid(field.cost, goals, field.obstacles),
        lambda: dijkstra_grid_bucketed(field.cost, goals, field.obstacles),
        repeats,
    )
    return {
        "reference_s": ref_s,
        "vectorized_s": vec_s,
        "reference_cpu_s": ref_cpu,
        "vectorized_cpu_s": vec_cpu,
        "speedup": ref_s / vec_s,
        "ops": int(np.isfinite(ref_out).sum()),
    }


def bench_search_pp3d(smoke: bool = False, seed: int = 7) -> Dict[str, float]:
    """Time end-to-end pp3d planning, heapq/dict reference vs array core.

    The suite's standard pp3d inputset (96x96x24 campus volume,
    corner-to-corner query): the whole kernel ROI including collision
    handling, so this is the user-visible planning latency, not just the
    open-list microcost.  Both backends must return identical costs,
    paths, and expansion counts before the timings are trusted.
    """
    if smoke:
        nx, ny, nz, repeats = 48, 48, 12, 2
    else:
        nx, ny, nz, repeats = 96, 96, 24, 3
    grid = campus_like_3d(nx=nx, ny=ny, nz=nz, resolution=1.0, seed=seed)
    start, goal = far_apart_free_voxels(grid)

    ref_out = plan_3d(grid, start, goal, backend="reference")
    arr_out = plan_3d(grid, start, goal, backend="array")
    if (
        ref_out.found != arr_out.found
        or ref_out.cost != arr_out.cost
        or ref_out.path != arr_out.path
        or ref_out.expansions != arr_out.expansions
    ):
        raise AssertionError("pp3d backends return different plans")
    ref_s, vec_s, ref_cpu, vec_cpu = _interleaved_min(
        lambda: plan_3d(grid, start, goal, backend="reference"),
        lambda: plan_3d(grid, start, goal, backend="array"),
        repeats,
    )
    return {
        "reference_s": ref_s,
        "vectorized_s": vec_s,
        "reference_cpu_s": ref_cpu,
        "vectorized_cpu_s": vec_cpu,
        "speedup": ref_s / vec_s,
        "ops": ref_out.expansions,
    }


# -- driver --------------------------------------------------------------------

#: phase name -> benchmark callable, in report order.
BENCH_PHASES: Dict[str, Callable[..., Dict[str, float]]] = {
    "raycast": bench_raycast,
    "collision": bench_collision,
    "nn": bench_nn,
    "search_dijkstra": bench_search_dijkstra,
    "search_pp3d": bench_search_pp3d,
}


def select_phases(
    patterns: Optional[List[str]],
) -> Dict[str, Callable[..., Dict[str, float]]]:
    """Subset of :data:`BENCH_PHASES` matching the given glob patterns.

    ``None``/empty selects everything; an unmatched pattern set raises
    so a typo cannot silently bench nothing.
    """
    if not patterns:
        return dict(BENCH_PHASES)
    selected = {
        name: fn
        for name, fn in BENCH_PHASES.items()
        if any(fnmatch.fnmatch(name, pattern) for pattern in patterns)
    }
    if not selected:
        raise ValueError(
            f"no bench phases match {patterns!r}; "
            f"available: {', '.join(BENCH_PHASES)}"
        )
    return selected


def run_bench(
    smoke: bool = False,
    seed: int = 7,
    phases: Optional[List[str]] = None,
) -> Dict[str, Dict[str, float]]:
    """Run the hot-path benchmarks serially; returns ``phase -> metrics``.

    ``phases`` optionally restricts the run to the phase names matching
    the given glob patterns (e.g. ``["search_*"]``).  The phases run one
    after another so that no phase's timing shares the CPUs with a
    sibling's: the speedup-floor gates (``rtrbench gate``) judge these
    timings.  A phase that fails raises.  ``rtrbench suite -j N
    --filter 'bench:*'`` runs the phases concurrently, as suite tasks.
    """
    return {
        phase: fn(smoke=smoke, seed=seed)
        for phase, fn in select_phases(phases).items()
    }


def run_bench_record(
    smoke: bool = False,
    seed: int = 7,
    phases: Optional[List[str]] = None,
) -> RunRecord:
    """Run the bench under a pinned thread environment; return a record.

    Thread-count variables (``OMP_NUM_THREADS`` and friends) are pinned
    to 1 for the duration of the run — unset BLAS thread pools are the
    single largest source of run-to-run hot-path noise — unless the user
    set them, in which case their values win.  Either way the observed
    mapping lands in the record's environment fingerprint, so two
    records' timings are never compared without knowing the thread
    configuration each was measured under.
    """
    with pinned_thread_env() as thread_env:
        results = run_bench(smoke=smoke, seed=seed, phases=phases)
        env = capture_environment(thread_env=thread_env)
    return record_from_bench(
        results, smoke=smoke, seed=seed, env=env,
        partial=len(results) < len(BENCH_PHASES),
    )


def render_report(results: Dict[str, Dict[str, float]]) -> str:
    """Fixed-width table of the benchmark results (wall and CPU clock)."""
    lines = [
        f"{'phase':<12} {'reference':>11} {'vectorized':>11} "
        f"{'ref (cpu)':>11} {'vec (cpu)':>11} {'speedup':>8} {'ops':>12}"
    ]
    for phase, row in results.items():
        ref_cpu = row.get("reference_cpu_s", 0.0)
        vec_cpu = row.get("vectorized_cpu_s", 0.0)
        lines.append(
            f"{phase:<12} {row['reference_s'] * 1e3:>9.2f}ms "
            f"{row['vectorized_s'] * 1e3:>9.2f}ms "
            f"{ref_cpu * 1e3:>9.2f}ms {vec_cpu * 1e3:>9.2f}ms "
            f"{row['speedup']:>7.2f}x {row['ops']:>12d}"
        )
    return "\n".join(lines)
