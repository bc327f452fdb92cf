"""Graph search substrate: priority queues, A*, Weighted A*, Dijkstra.

Best-first graph search is the backbone of the planning kernels (pp2d,
pp3d, movtar, prm, and the symbolic planners all reduce to it).  The
algorithms here operate over *implicit* graphs — a successor function
rather than materialized adjacency — which is how the paper's kernels
search environments too large to enumerate.

The ``array`` tier's A* (:func:`astar_flat`) runs in a small C core,
compiled on first use into the workload cache dir; it takes the
heuristic as a float64 table over the padded index space
(:func:`heuristic_table_2d`, :func:`heuristic_table_3d`).  Everything
else here, including the ``reference`` tier, is pure Python.
"""

from repro.search.astar import SearchResult, astar, weighted_astar
from repro.search.dijkstra import backward_dijkstra_grid, dijkstra
from repro.search.grid_core import (
    BucketQuantizationError,
    BucketQueue,
    FlatSearchResult,
    GridSweepStats,
    astar_flat,
    astar_grid_2d,
    astar_grid_3d,
    dijkstra_grid_bucketed,
    heuristic_table_2d,
    heuristic_table_3d,
)
from repro.search.queues import PriorityQueue
from repro.search.space import SearchSpace

__all__ = [
    "SearchResult",
    "astar",
    "weighted_astar",
    "backward_dijkstra_grid",
    "dijkstra",
    "BucketQuantizationError",
    "BucketQueue",
    "FlatSearchResult",
    "GridSweepStats",
    "astar_flat",
    "astar_grid_2d",
    "astar_grid_3d",
    "dijkstra_grid_bucketed",
    "heuristic_table_2d",
    "heuristic_table_3d",
    "PriorityQueue",
    "SearchSpace",
]
