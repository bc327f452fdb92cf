"""Dijkstra's algorithm, including the backward-Dijkstra heuristic table.

The movtar kernel (paper section V.6) cannot be solved in reasonable time
without a well-informing heuristic; it runs *backward Dijkstra* from the
goal region over the 2D costmap before the 3D (x, y, time) search starts,
producing an environment-aware cost-to-go table that the Weighted A*
search then reads as its heuristic.
"""

from __future__ import annotations

import heapq
from typing import Dict, Hashable, Iterable, List, Optional, Tuple

import numpy as np

from repro.search.grid_core import blocked_cells, dijkstra_grid_bucketed
from repro.search.space import SearchSpace


def dijkstra(
    space: SearchSpace, start: Hashable, max_expansions: Optional[int] = None
) -> Dict[Hashable, float]:
    """Single-source shortest-path costs over an implicit graph.

    Ignores the space's heuristic and goal; explores until exhaustion (or
    ``max_expansions``), returning the cost-to-reach map.
    """
    dist: Dict[Hashable, float] = {start: 0.0}
    done = set()
    heap: List[Tuple[float, int, Hashable]] = [(0.0, 0, start)]
    tiebreak = 0
    expansions = 0
    while heap:
        d, _, state = heapq.heappop(heap)
        if state in done:
            continue
        done.add(state)
        expansions += 1
        if max_expansions is not None and expansions > max_expansions:
            break
        for succ, cost in space.successors(state):
            nd = d + cost
            if nd < dist.get(succ, float("inf")):
                dist[succ] = nd
                tiebreak += 1
                heapq.heappush(heap, (nd, tiebreak, succ))
    return dist


_GRID_NEIGHBORS = (
    (-1, 0, 1.0),
    (1, 0, 1.0),
    (0, -1, 1.0),
    (0, 1, 1.0),
    (-1, -1, 2.0**0.5),
    (-1, 1, 2.0**0.5),
    (1, -1, 2.0**0.5),
    (1, 1, 2.0**0.5),
)


def shortest_grid_path(
    obstacle_mask: np.ndarray,
    start: Tuple[int, int],
    goal: Tuple[int, int],
) -> List[Tuple[int, int]]:
    """Shortest 8-connected cell path through free space, start to goal.

    Runs backward Dijkstra (the bucketed engine: unit costs always
    bucket) from the goal on a unit costmap, then descends
    the cost-to-go table greedily from the start.  Returns an empty list
    when no path exists.  Used by workload generators to lay out robot
    trajectories through procedurally generated maps.
    """
    blocked = np.asarray(obstacle_mask, dtype=bool)
    if blocked[start] or blocked[goal]:
        return []
    dist = dijkstra_grid_bucketed(
        np.ones_like(blocked, dtype=float), [goal], blocked
    )
    if not np.isfinite(dist[start]):
        return []
    path = [start]
    r, c = start
    rows, cols = blocked.shape
    while (r, c) != goal:
        best = None
        best_d = dist[r, c]
        for dr, dc, _ in _GRID_NEIGHBORS:
            nr, nc = r + dr, c + dc
            if 0 <= nr < rows and 0 <= nc < cols and dist[nr, nc] < best_d:
                best_d = dist[nr, nc]
                best = (nr, nc)
        if best is None:  # pragma: no cover - cannot happen on finite dist
            return []
        r, c = best
        path.append((r, c))
    return path


def backward_dijkstra_grid(
    traversal_cost: np.ndarray,
    goals: Iterable[Tuple[int, int]],
    obstacle_mask: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Cost-to-go table from every cell to the nearest goal cell.

    ``traversal_cost[r, c]`` is the per-step cost of *entering* cell
    (r, c) (movtar's location cost); moves are 8-connected with diagonal
    step length sqrt(2).  Obstacles (and unreachable cells) get +inf.

    Because edges are reversed relative to the forward search, running
    Dijkstra *from* the goals yields exactly the forward cost-to-go — the
    backward-Dijkstra heuristic of the paper.

    This is the scalar heapq ``reference``; the ``array`` tier's
    :func:`repro.search.grid_core.dijkstra_grid_bucketed` returns the
    same table bit for bit on every cost field it can bucket.  Raises
    ``ValueError`` when ``obstacle_mask`` and ``traversal_cost`` differ
    in shape.
    """
    cost = np.asarray(traversal_cost, dtype=float)
    rows, cols = cost.shape
    blocked = blocked_cells(cost, obstacle_mask)
    dist = np.full((rows, cols), np.inf)
    heap: List[Tuple[float, int, int]] = []
    for r, c in goals:
        if not (0 <= r < rows and 0 <= c < cols):
            raise ValueError(f"goal ({r}, {c}) outside the grid")
        if blocked[r, c]:
            continue
        dist[r, c] = 0.0
        heapq.heappush(heap, (0.0, r, c))
    while heap:
        d, r, c = heapq.heappop(heap)
        if d > dist[r, c]:
            continue
        for dr, dc, step in _GRID_NEIGHBORS:
            nr, nc = r + dr, c + dc
            if not (0 <= nr < rows and 0 <= nc < cols):
                continue
            if blocked[nr, nc]:
                continue
            nd = d + step * cost[nr, nc]
            if nd < dist[nr, nc]:
                dist[nr, nc] = nd
                heapq.heappush(heap, (nd, nr, nc))
    return dist
