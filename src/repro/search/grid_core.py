"""Array-backed grid-search engine: bucketed Dijkstra + flat-array A*.

The paper's performance argument (§VII, Fig. 21) is that graph search
dominates the planning kernels and that per-node Python data structures
— heapq entries as tuples, dict-keyed g/parent maps, hashable states —
are what make educational implementations orders of magnitude slower
than tuned ones.  This module is the suite's answer: search state lives
in preallocated flat arrays indexed by cell, never in dicts, and the
open list is chosen to match the cost structure:

* :class:`BucketQueue` — a Dial-style bucketed priority queue for the
  monotone, bounded-cost case (Dijkstra over a costmap).  With bucket
  width no larger than the minimum edge cost, every label in the
  current bucket is final when the bucket is reached (a relaxation out
  of bucket ``b`` lands in bucket ``>= b + 1``), so the engine can pop
  the *entire bucket at once* and expand it as one batched numpy
  frontier: successor indices from flat neighbor offsets, occupancy
  and improvement tests as vectorized masks, scatter-min relaxation
  via ``np.minimum.at``.  Exactness argument: for a frontier node
  ``u`` with ``dist[u]`` in bucket ``b`` and any edge cost
  ``c >= width``, ``dist[u] + c >= (b + 1) * width``, so no entry of
  bucket ``b`` can improve another entry of bucket ``b`` — precisely
  the classic Dial invariant, generalized to real costs.  The stored
  distances themselves stay exact floats; buckets only order work.

* :func:`astar_flat` — a lazy binary-heap A* over flat arrays for
  general (unquantizable) costs, e.g. f = g + epsilon * h with a
  Euclidean heuristic.  It is algorithm-for-algorithm the same search
  as :func:`repro.search.astar.weighted_astar` — same push condition,
  same FIFO tie-breaking, same goal-test-on-pop, same float arithmetic
  — so the two backends return identical costs, paths, and operation
  counters (expansions, pushes, pops); only the data layout differs.
  Grids are padded with a one-cell occupied halo: every flat neighbor
  offset lands either on a real cell or on the blocked halo, which is
  exactly the reference semantics of "out of bounds counts as
  occupied".  The loop itself is C (``_astar.c``), compiled on first
  use into the cache dir by :mod:`repro.native` and called
  through :mod:`ctypes`.
  It stays bitwise exact because heap entries ``(f, ticket)`` are
  totally ordered (any correct heap pops what ``heapq`` pops), the
  build forbids fused multiply-adds (``-ffp-contract=off``), and the
  heuristic arrives as a table computed in Python — in 2D from
  ``math.hypot``, since ``np.hypot`` rounds differently on some integer
  offsets.

:func:`dijkstra_grid_bucketed` is movtar's ``array``-tier heuristic
sweep (the full-grid cost-to-go table) and the path sweep of
``shortest_grid_path``; :func:`astar_flat` runs the pp2d/pp3d ``array``
planners.  The heapq implementations in :mod:`repro.search.astar` /
:mod:`.dijkstra` are the ``reference`` tier, and each kernel's
``backend`` alone picks between them.
"""

from __future__ import annotations

import ctypes
import functools
import heapq
import math
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.native import load_function

_SQRT2 = math.sqrt(2.0)

#: Canonical 8-connected move order for the 2D planners: the exact
#: iteration order of pp2d's reference successor function, so FIFO
#: tie-breaking (and therefore expansion order) matches across backends.
MOVES_2D_8: Tuple[Tuple[int, int], ...] = (
    (-1, 0), (1, 0), (0, -1), (0, 1), (-1, -1), (-1, 1), (1, -1), (1, 1),
)

#: Canonical 26-connected move order for the 3D planners (pp3d's
#: reference order: dz-major product, origin excluded).
MOVES_3D_26: Tuple[Tuple[int, int, int], ...] = tuple(
    (dz, dy, dx)
    for dz in (-1, 0, 1)
    for dy in (-1, 0, 1)
    for dx in (-1, 0, 1)
    if (dz, dy, dx) != (0, 0, 0)
)


class BucketQuantizationError(ValueError):
    """The cost structure cannot be bucket-quantized exactly.

    Raised when the minimum edge cost is not a positive finite number.
    Every cost field movtar builds buckets (``CostField`` rejects
    non-positive costs); the heapq reference
    (:func:`repro.search.dijkstra.backward_dijkstra_grid`) takes any
    non-negative costs.
    """


class BucketQueue:
    """Dial-style bucketed min-priority queue over flat cell indices.

    Priorities are binned into buckets of fixed ``width``; entries are
    pushed in numpy batches and popped one *whole bucket* at a time.
    Bucket ids live in a dict (only touched buckets exist) ordered by a
    small heap of ids, so sparse/huge priority ranges cost nothing.

    Floating-point guard: a relaxation landing exactly on a bucket
    boundary can round *down* into the bucket currently being drained.
    Pushes are therefore clamped to the drain cursor and the engine
    keeps re-popping the current bucket until it is empty before
    advancing — the late entries are final by the same Dial invariant,
    just mis-binned by one ulp.
    """

    def __init__(self, width: float) -> None:
        if not (width > 0.0 and math.isfinite(width)):
            raise BucketQuantizationError(
                f"bucket width must be positive and finite, got {width!r}"
            )
        self.width = float(width)
        self._buckets: Dict[int, List[Tuple[np.ndarray, np.ndarray]]] = {}
        self._order: List[int] = []  # min-heap of live bucket ids
        self._cursor = 0
        self.pushes = 0
        self.pop_batches = 0

    def __bool__(self) -> bool:
        return any(parts for parts in self._buckets.values())

    def push_batch(self, indices: np.ndarray, priorities: np.ndarray) -> None:
        """Insert a batch of ``(index, priority)`` entries."""
        k = len(indices)
        if k == 0:
            return
        self.pushes += k
        bucket_ids = np.floor_divide(priorities, self.width).astype(np.int64)
        np.maximum(bucket_ids, self._cursor, out=bucket_ids)  # ulp guard
        lo_b = int(bucket_ids.min())
        hi_b = int(bucket_ids.max())
        if lo_b == hi_b:
            self._append(lo_b, indices, priorities)
            return
        # Edge costs are bounded, so a batch spans few buckets: group by
        # one unstable sort + searchsorted boundaries (order within a
        # bucket is irrelevant), slicing views instead of copies.
        order = np.argsort(bucket_ids)
        bs = bucket_ids[order]
        idxs = indices[order]
        prios = priorities[order]
        bounds = np.searchsorted(bs, np.arange(lo_b, hi_b + 2))
        for b in range(lo_b, hi_b + 1):
            lo, hi = bounds[b - lo_b], bounds[b - lo_b + 1]
            if lo < hi:
                self._append(b, idxs[lo:hi], prios[lo:hi])

    def _append(self, b: int, idx: np.ndarray, prio: np.ndarray) -> None:
        parts = self._buckets.get(b)
        if parts is None:
            self._buckets[b] = [(idx, prio)]
            heapq.heappush(self._order, b)
        else:
            parts.append((idx, prio))

    def pop_batch(self) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """Drain and return the lowest non-empty bucket, or ``None``.

        The returned arrays may contain stale (superseded) entries and
        duplicates; callers filter against their distance table.
        """
        while self._order:
            b = self._order[0]
            parts = self._buckets.get(b)
            if not parts:
                heapq.heappop(self._order)
                self._buckets.pop(b, None)
                continue
            self._cursor = b
            self._buckets[b] = []  # keep b live: late same-bucket pushes
            self.pop_batches += 1
            if len(parts) == 1:
                return parts[0]
            return (
                np.concatenate([p[0] for p in parts]),
                np.concatenate([p[1] for p in parts]),
            )
        return None


@dataclass
class GridSweepStats:
    """Operation counters of one bucketed full-grid sweep."""

    pushes: int = 0
    pops: int = 0
    expansions: int = 0
    batches: int = 0


def blocked_cells(
    cost: np.ndarray, obstacle_mask: Optional[np.ndarray]
) -> np.ndarray:
    """``obstacle_mask`` as a boolean grid shaped like ``cost`` (all free
    when ``None``); raises ``ValueError`` naming both shapes if they
    differ."""
    if obstacle_mask is None:
        return np.zeros_like(cost, dtype=bool)
    blocked = np.asarray(obstacle_mask, dtype=bool)
    if blocked.shape != cost.shape:
        raise ValueError(
            f"obstacle_mask shape {blocked.shape} does not match "
            f"traversal_cost shape {cost.shape}"
        )
    return blocked


def dijkstra_grid_bucketed(
    traversal_cost: np.ndarray,
    goals: Iterable[Tuple[int, int]],
    obstacle_mask: Optional[np.ndarray] = None,
    stats: Optional[GridSweepStats] = None,
) -> np.ndarray:
    """Backward-Dijkstra cost-to-go table on the bucketed batch engine.

    Drop-in for the heapq reference in :mod:`repro.search.dijkstra`:
    8-connected moves, diagonal step sqrt(2), ``traversal_cost[r, c]``
    paid on *entering* (r, c), obstacles and unreachable cells +inf.
    Returns the reference's table bit for bit.  Raises
    :class:`BucketQuantizationError` when the cost field has no positive
    finite minimum, and ``ValueError`` when ``obstacle_mask`` and
    ``traversal_cost`` differ in shape.
    """
    cost = np.asarray(traversal_cost, dtype=float)
    rows, cols = cost.shape
    blocked = blocked_cells(cost, obstacle_mask)
    seeds: List[int] = []
    pcols = cols + 2
    for r, c in goals:
        if not (0 <= r < rows and 0 <= c < cols):
            raise ValueError(f"goal ({r}, {c}) outside the grid")
        if not blocked[r, c]:
            seeds.append((r + 1) * pcols + (c + 1))
    free = ~blocked
    if not seeds or not free.any():
        return np.full((rows, cols), np.inf)
    # Exactness requires bucket width <= the smallest edge cost; the
    # cheapest edge is a straight (length-1.0) step into the cheapest
    # free cell.
    min_cost = float(cost[free].min())
    if not (min_cost > 0.0 and math.isfinite(min_cost)):
        raise BucketQuantizationError(
            f"minimum free-cell cost {min_cost!r} is not bucketable"
        )
    if stats is None:
        stats = GridSweepStats()

    # One-cell occupied halo: flat neighbor offsets never need bounds
    # checks, and the halo reproduces "outside the map is blocked".
    # Blocked cells are encoded directly in the distance table as -inf,
    # so the single test ``nd < dist[n]`` rejects them for free — no
    # separate occupancy gather in the hot loop.
    prows = rows + 2
    cost_p = np.zeros((prows, pcols), dtype=float)
    cost_p[1:-1, 1:-1] = cost
    cost_flat = cost_p.ravel()

    offsets = np.array(
        [-pcols, pcols, -1, 1, -pcols - 1, -pcols + 1, pcols - 1, pcols + 1],
        dtype=np.int64,
    )
    steps = np.array([1.0, 1.0, 1.0, 1.0, _SQRT2, _SQRT2, _SQRT2, _SQRT2])

    dist_p = np.full((prows, pcols), -np.inf)
    dist_p[1:-1, 1:-1] = np.where(free, np.inf, -np.inf)
    dist = dist_p.ravel()
    seed_idx = np.asarray(sorted(set(seeds)), dtype=np.int64)
    dist[seed_idx] = 0.0

    queue = BucketQueue(min_cost)
    queue.push_batch(seed_idx, np.zeros(len(seed_idx)))

    # Invariant: the queue never holds two *live* entries for one cell.
    # Pushes require a strict improvement over ``dist`` and each batch
    # is deduplicated before pushing, so entries for the same cell have
    # strictly decreasing priorities — the latest matches ``dist``,
    # every earlier one fails ``prio <= dist`` as stale.  No settled
    # array and no sort on the pop side.
    while True:
        batch = queue.pop_batch()
        if batch is None:
            break
        idx, prio = batch
        live = prio <= dist.take(idx)  # lazy decrease-key staleness test
        if live.all():
            frontier, du = idx, prio
        else:
            frontier = idx[live]
            if frontier.size == 0:
                continue
            du = prio[live]  # live means prio == dist[frontier]
        stats.pops += len(frontier)
        stats.expansions += len(frontier)
        stats.batches += 1

        # Batched expansion: all successors of the whole bucket at once.
        nidx = frontier[:, None] + offsets
        nd = du[:, None] + steps * cost_flat.take(nidx)
        improving = nd < dist.take(nidx)  # blocked/halo are -inf: excluded
        cand = nidx[improving]
        if cand.size == 0:
            continue
        vals = nd[improving]
        # Scatter-min + dedupe: sort by cell, reduce each run to its
        # minimum.  Deduping before the push keeps the one-live-entry
        # invariant (equal-value duplicates would otherwise multiply
        # along symmetric shortest paths, e.g. on unit-cost maps).
        order = np.argsort(cand)
        cand = cand[order]
        vals = vals[order]
        first = np.empty(len(cand), dtype=bool)
        first[0] = True
        np.not_equal(cand[1:], cand[:-1], out=first[1:])
        starts = np.flatnonzero(first)
        cand = cand[starts]
        vals = np.minimum.reduceat(vals, starts)
        dist[cand] = vals
        queue.push_batch(cand, vals)
    stats.pushes = queue.pushes
    table = dist.reshape(prows, pcols)[1:-1, 1:-1].copy()
    table[np.isneginf(table)] = np.inf  # blocked cells report unreachable
    return table


# -- flat-array A* ---------------------------------------------------------------

#: C source of the search loop, compiled on first use by :func:`load_core`.
_CORE_SOURCE = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "_astar.c"
)


@dataclass
class FlatSearchResult:
    """Outcome of a flat-index A* run (indices, not tuples)."""

    found: bool
    path: List[int] = field(default_factory=list)
    cost: float = float("inf")
    expansions: int = 0
    generated: int = 0
    pushes: int = 0
    pops: int = 0


def load_core() -> Callable[..., int]:
    """The compiled search loop (see :func:`repro.native.load_function`)."""
    i64, ptr = ctypes.c_int64, ctypes.c_void_p
    return load_function(_CORE_SOURCE, "rtr_astar_flat", ctypes.c_int, (
        i64, ctypes.c_int32, ptr, ptr, ptr, i64, ptr, i64, i64,
        ctypes.c_double, i64, ptr, ptr, ptr,
    ))


def astar_flat(
    moves: Sequence[Tuple[int, float]],
    blocked: np.ndarray,
    heuristic: np.ndarray,
    start: int,
    goal: int,
    epsilon: float = 1.0,
    max_expansions: Optional[int] = None,
) -> FlatSearchResult:
    """Weighted A* over a flat index space, run by the compiled core.

    ``moves`` lists ``(flat_offset, step_cost)`` pairs.  ``blocked`` is
    a truthiness table over the same padded index space: shape ``(n,)``
    for one table shared by every move (pp3d, fast 2D A*), or
    ``(len(moves), n)`` for a per-direction table (pp2d's
    heading-dependent footprint masks).  ``heuristic`` is the float64
    table of h over all ``n`` indices (see :func:`heuristic_table_2d`
    and :func:`heuristic_table_3d`).

    The search is the same algorithm as
    :func:`repro.search.astar.weighted_astar`: lazy decrease-key
    (re-push, skip superseded entries on pop), FIFO tie-breaking by a
    global insertion counter, goal test on pop, and identical float
    arithmetic — so expansion order, costs, and the (pushes, pops,
    expansions, generated) counters match the heapq reference exactly.
    Only the storage differs: flat C arrays instead of dict-of-tuples
    maps.
    """
    if epsilon < 1.0:
        raise ValueError("epsilon must be >= 1.0")
    h = np.ascontiguousarray(heuristic, dtype=np.float64)
    if h.ndim != 1 or not (0 <= start < len(h) and 0 <= goal < len(h)):
        raise ValueError("start and goal must index a flat heuristic table")
    n = len(h)
    table = np.ascontiguousarray(blocked, dtype=np.uint8)
    if table.shape == (n,):
        stride = 0
    elif table.shape == (len(moves), n):
        stride = n
    else:
        raise ValueError(
            f"blocked has shape {table.shape}; expected ({n},) or "
            f"({len(moves)}, {n})"
        )
    offsets = np.array([offset for offset, _ in moves], dtype=np.int64)
    steps = np.array([step for _, step in moves], dtype=np.float64)
    counters = np.zeros(5, dtype=np.int64)
    cost = np.full(1, np.inf)
    path = np.empty(n, dtype=np.int64)
    # A negative cap stops after the first expansion, exactly as 0 does.
    cap = -1 if max_expansions is None else max(int(max_expansions), 0)
    status = load_core()(
        n, len(moves), offsets.ctypes.data, steps.ctypes.data,
        table.ctypes.data, stride, h.ctypes.data, int(start), int(goal),
        float(epsilon), cap, counters.ctypes.data, cost.ctypes.data,
        path.ctypes.data,
    )
    if status < 0:
        raise MemoryError(f"A* core could not allocate state for {n} nodes")
    expansions, generated, pushes, pops, length = counters.tolist()
    return FlatSearchResult(
        found=status == 1, path=path[:length].tolist(), cost=float(cost[0]),
        expansions=expansions, generated=generated, pushes=pushes, pops=pops,
    )


# -- padded-grid helpers ---------------------------------------------------------


def pad_blocked_2d(cells: np.ndarray) -> np.ndarray:
    """Flat uint8 occupancy of a 2D grid with a one-cell occupied halo."""
    rows, cols = cells.shape
    padded = np.ones((rows + 2, cols + 2), dtype=np.uint8)
    padded[1:-1, 1:-1] = cells
    return padded.ravel()


def pad_blocked_3d(cells: np.ndarray) -> np.ndarray:
    """Flat uint8 occupancy of a 3D grid with a one-voxel occupied halo."""
    nz, ny, nx = cells.shape
    padded = np.ones((nz + 2, ny + 2, nx + 2), dtype=np.uint8)
    padded[1:-1, 1:-1, 1:-1] = cells
    return padded.ravel()


@functools.lru_cache(maxsize=8)
def _hypot_table(rows: int, cols: int) -> np.ndarray:
    """Read-only ``math.hypot(dr, dc)`` for ``dr < rows``, ``dc < cols``."""
    table = np.array(
        [[math.hypot(dr, dc) for dc in range(cols)] for dr in range(rows)]
    )
    table.flags.writeable = False
    return table


def heuristic_table_2d(
    shape: Tuple[int, int], goal: Tuple[int, int], resolution: float
) -> np.ndarray:
    """Flat ``math.hypot(r - goal_r, c - goal_c) * resolution`` table.

    Covers the halo-padded grid of a ``shape`` grid, indexed like
    :func:`pad_blocked_2d`.  The distances are gathered from a
    ``math.hypot`` table over absolute offsets, not computed with
    ``np.hypot``: the two round differently on some integer pairs, and
    the reference backends use ``math.hypot``.
    """
    rows, cols = shape
    dr = np.abs(np.arange(-1, rows + 1) - goal[0])
    dc = np.abs(np.arange(-1, cols + 1) - goal[1])
    table = _hypot_table(rows + 2, cols + 2)
    return (table[dr[:, None], dc[None, :]] * resolution).ravel()


def heuristic_table_3d(
    shape: Tuple[int, int, int], goal: Tuple[int, int, int], resolution: float
) -> np.ndarray:
    """Flat ``sqrt(dz² + dy² + dx²) * resolution`` table, as in pp3d.

    Covers the halo-padded grid of a ``shape`` grid, indexed like
    :func:`pad_blocked_3d`.  The square sum is an exact integer and
    IEEE square root is correctly rounded, so every entry equals the
    reference's ``math.sqrt(...) * resolution`` bitwise.
    """
    dz, dy, dx = (
        np.arange(-1, size + 1) - g for size, g in zip(shape, goal)
    )
    # One full-size float64 array: the exact integer square sums are
    # written into it, then rooted and scaled in place.
    table = np.empty(tuple(size + 2 for size in shape))
    np.add(
        (dz * dz)[:, None, None] + (dy * dy)[None, :, None],
        (dx * dx)[None, None, :], out=table,
    )
    np.sqrt(table, out=table)
    table *= resolution
    return table.ravel()


def moves_2d(cols: int, resolution: float) -> List[Tuple[int, float]]:
    """(flat offset, step cost) per canonical 2D move on a padded grid.

    Step costs use the same expression as the pp2d reference successor
    function (``math.hypot(dr, dc) * resolution``) so g-values match
    bitwise across backends.
    """
    pcols = cols + 2
    return [
        (dr * pcols + dc, math.hypot(dr, dc) * resolution)
        for dr, dc in MOVES_2D_8
    ]


def moves_3d(ny: int, nx: int, resolution: float) -> List[Tuple[int, float]]:
    """(flat offset, step cost) per canonical 3D move on a padded grid.

    Step costs replicate the pp3d reference expression
    (``float(math.sqrt(dz*dz + dy*dy + dx*dx)) * resolution``).
    """
    pny, pnx = ny + 2, nx + 2
    return [
        (
            (dz * pny + dy) * pnx + dx,
            float(math.sqrt(dz * dz + dy * dy + dx * dx)) * resolution,
        )
        for dz, dy, dx in MOVES_3D_26
    ]


def astar_grid_2d(
    cells: np.ndarray,
    start: Tuple[int, int],
    goal: Tuple[int, int],
    resolution: float = 1.0,
    epsilon: float = 1.0,
    max_expansions: Optional[int] = None,
    blocked_by_move: Optional[Sequence[np.ndarray]] = None,
) -> Tuple[FlatSearchResult, List[Tuple[int, int]]]:
    """8-connected flat-array A* over a 2D occupancy array.

    ``blocked_by_move`` optionally supplies one padded flat validity
    table per canonical move (heading-dependent footprints), as a
    sequence or one ``(8, n)`` block; default is the shared
    occupancy-with-halo table.  Returns the flat result plus the path
    as (row, col) tuples.
    """
    rows, cols = cells.shape
    pcols = cols + 2
    if blocked_by_move is None:
        blocked = pad_blocked_2d(cells)
    else:
        blocked = np.asarray(blocked_by_move, dtype=np.uint8)
    start_idx = (start[0] + 1) * pcols + (start[1] + 1)
    goal_idx = (goal[0] + 1) * pcols + (goal[1] + 1)
    result = astar_flat(
        moves_2d(cols, resolution), blocked,
        heuristic_table_2d((rows, cols), goal, resolution),
        start_idx, goal_idx, epsilon=epsilon, max_expansions=max_expansions,
    )
    path = [(idx // pcols - 1, idx % pcols - 1) for idx in result.path]
    return result, path


def astar_grid_3d(
    cells: np.ndarray,
    start: Tuple[int, int, int],
    goal: Tuple[int, int, int],
    resolution: float = 1.0,
    epsilon: float = 1.0,
    max_expansions: Optional[int] = None,
) -> Tuple[FlatSearchResult, List[Tuple[int, int, int]]]:
    """26-connected flat-array A* over a 3D voxel array.

    The same treatment :mod:`repro.planning.fast_astar` gave pp2d,
    extended to pp3d's (z, y, x) voxel grids.  Returns the flat result
    plus the path as (z, y, x) tuples.
    """
    nz, ny, nx = cells.shape
    pny, pnx = ny + 2, nx + 2
    plane = pny * pnx
    start_idx = ((start[0] + 1) * pny + (start[1] + 1)) * pnx + (start[2] + 1)
    goal_idx = ((goal[0] + 1) * pny + (goal[1] + 1)) * pnx + (goal[2] + 1)
    result = astar_flat(
        moves_3d(ny, nx, resolution), pad_blocked_3d(cells),
        heuristic_table_3d((nz, ny, nx), goal, resolution),
        start_idx, goal_idx, epsilon=epsilon, max_expansions=max_expansions,
    )
    path = [
        (idx // plane - 1, (idx % plane) // pnx - 1, (idx % plane) % pnx - 1)
        for idx in result.path
    ]
    return result, path
