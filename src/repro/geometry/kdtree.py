"""A KD-tree supporting incremental insertion and instrumented queries.

The sampling-based planners (rrt, rrtstar, rrtpp) spend up to half their
time in nearest-neighbor search; the paper attributes this to irregular
memory access over the sample set.  This tree supports the access pattern
those kernels need — insert one sample, query nearest / near-radius — and
counts node visits per query, which is the architecture-independent proxy
for that irregular traversal work.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional, Sequence, Tuple

import numpy as np

CountFn = Callable[[str, int], None]


class _Node:
    __slots__ = ("point", "data", "axis", "left", "right")

    def __init__(self, point: np.ndarray, data: Any, axis: int) -> None:
        self.point = point
        self.data = data
        self.axis = axis
        self.left: Optional["_Node"] = None
        self.right: Optional["_Node"] = None


class KDTree:
    """k-d tree over points in R^d with attached payloads.

    Points inserted incrementally descend to a leaf (no rebalancing — the
    RRT insertion order is random, which keeps the tree near-balanced in
    expectation); :meth:`pop` undoes the latest insert.  ``visits``
    accumulates nodes touched across queries.
    """

    def __init__(self, dimensions: int) -> None:
        if dimensions < 1:
            raise ValueError("dimensions must be >= 1")
        self.dimensions = dimensions
        self._root: Optional[_Node] = None
        self._size = 0
        self.visits = 0
        # Per insert, the (parent, side) its leaf hangs from (None: the root).
        self._links: List[Optional[Tuple[_Node, str]]] = []

    def __len__(self) -> int:
        return self._size

    # -- construction --------------------------------------------------------

    def insert(self, point: Sequence[float], data: Any = None) -> None:
        """Insert one point with an optional payload."""
        pt = np.asarray(point, dtype=float)
        if pt.shape != (self.dimensions,):
            raise ValueError(
                f"expected a {self.dimensions}-dimensional point, got {pt.shape}"
            )
        if self._root is None:
            self._root = _Node(pt, data, axis=0)
            self._size = 1
            self._links.append(None)
            return
        node = self._root
        while True:
            axis = node.axis
            if pt[axis] < node.point[axis]:
                if node.left is None:
                    node.left = _Node(pt, data, (axis + 1) % self.dimensions)
                    self._links.append((node, "left"))
                    break
                node = node.left
            else:
                if node.right is None:
                    node.right = _Node(pt, data, (axis + 1) % self.dimensions)
                    self._links.append((node, "right"))
                    break
                node = node.right
        self._size += 1

    def pop(self) -> None:
        """Remove the most recently inserted point still in the tree.

        Undoes :meth:`insert` last-in first-out: that point's node is a
        leaf, because every later insert was popped before it.
        """
        if not self._links:
            raise IndexError("pop() with no inserted point left")
        link = self._links.pop()
        if link is None:
            self._root = None
        else:
            parent, side = link
            setattr(parent, side, None)
        self._size -= 1

    @staticmethod
    def build(
        points: np.ndarray, payloads: Optional[Sequence[Any]] = None
    ) -> "KDTree":
        """Construct a balanced tree from an ``(n, d)`` point array."""
        points = np.asarray(points, dtype=float)
        if points.ndim != 2:
            raise ValueError("points must be an (n, d) array")
        n, d = points.shape
        tree = KDTree(d)
        if payloads is None:
            payloads = list(range(n))
        order = list(range(n))

        def make(indices: List[int], axis: int) -> Optional[_Node]:
            if not indices:
                return None
            indices.sort(key=lambda i: points[i][axis])
            mid = len(indices) // 2
            i = indices[mid]
            node = _Node(points[i].copy(), payloads[i], axis)
            nxt = (axis + 1) % d
            node.left = make(indices[:mid], nxt)
            node.right = make(indices[mid + 1 :], nxt)
            return node

        tree._root = make(order, 0)
        tree._size = n
        return tree

    # -- queries --------------------------------------------------------------

    def nearest(
        self, query: Sequence[float], count: Optional[CountFn] = None
    ) -> Tuple[np.ndarray, Any, float]:
        """The single closest point: returns (point, payload, distance)."""
        results = self.k_nearest(query, 1, count)
        if not results:
            raise ValueError("nearest() on an empty tree")
        return results[0]

    def k_nearest(
        self,
        query: Sequence[float],
        k: int,
        count: Optional[CountFn] = None,
    ) -> List[Tuple[np.ndarray, Any, float]]:
        """The k closest points, nearest first."""
        q = np.asarray(query, dtype=float)
        heap: List[Tuple[float, int, _Node]] = []  # max-heap via negated dist
        counter = [0]
        tiebreak = [0]

        def visit(node: Optional[_Node]) -> None:
            if node is None:
                return
            counter[0] += 1
            d2 = float(np.sum((node.point - q) ** 2))
            if len(heap) < k:
                tiebreak[0] += 1
                heapq.heappush(heap, (-d2, tiebreak[0], node))
            elif d2 < -heap[0][0]:
                tiebreak[0] += 1
                heapq.heapreplace(heap, (-d2, tiebreak[0], node))
            axis = node.axis
            diff = q[axis] - node.point[axis]
            near, far = (node.left, node.right) if diff < 0 else (node.right, node.left)
            visit(near)
            if len(heap) < k or diff * diff < -heap[0][0]:
                visit(far)

        visit(self._root)
        self.visits += counter[0]
        if count is not None:
            count("nn_node_visits", counter[0])
        ordered = sorted(heap, key=lambda item: -item[0])
        return [
            (node.point, node.data, float(np.sqrt(-negd2)))
            for negd2, _, node in ordered
        ]

    def within_radius(
        self,
        query: Sequence[float],
        radius: float,
        count: Optional[CountFn] = None,
    ) -> List[Tuple[np.ndarray, Any, float]]:
        """All points within ``radius`` of the query, nearest first."""
        q = np.asarray(query, dtype=float)
        r2 = radius * radius
        found: List[Tuple[np.ndarray, Any, float]] = []
        counter = [0]

        def visit(node: Optional[_Node]) -> None:
            if node is None:
                return
            counter[0] += 1
            d2 = float(np.sum((node.point - q) ** 2))
            if d2 <= r2:
                found.append((node.point, node.data, float(np.sqrt(d2))))
            axis = node.axis
            diff = q[axis] - node.point[axis]
            near, far = (node.left, node.right) if diff < 0 else (node.right, node.left)
            visit(near)
            if diff * diff <= r2:
                visit(far)

        visit(self._root)
        self.visits += counter[0]
        if count is not None:
            count("nn_node_visits", counter[0])
        found.sort(key=lambda item: item[2])
        return found


class BatchKDTree:
    """Exact kd-tree over a fixed ``(n, d)`` point array, queried in batches.

    A thin wrapper over :class:`scipy.spatial.cKDTree` (imported on first
    use, so processes that never batch-query never load it).  The tree
    computes each candidate distance as a direct sum of squared coordinate
    differences, the same arithmetic as :meth:`KDTree.nearest`, so its
    distances are bit-identical to the instrumented tree's.  Build it once
    per point set and query it many times: ICP queries one tree per
    iteration.  The reported work is ``nn_queries``, one per query point
    (the C tree does not expose node visits).
    """

    def __init__(self, points: np.ndarray) -> None:
        from scipy.spatial import cKDTree

        points = np.asarray(points, dtype=float)
        if points.ndim != 2:
            raise ValueError("points must be an (n, d) array")
        if len(points) == 0:
            raise ValueError("BatchKDTree() with no points")
        if not np.isfinite(points).all():
            raise ValueError("points must be finite")
        self.dimensions = points.shape[1]
        self._tree = cKDTree(points)

    def query(
        self, queries: np.ndarray, count: Optional[CountFn] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Each query's closest point: returns ``(indices, distances)``."""
        queries = np.asarray(queries, dtype=float)
        if queries.ndim != 2 or queries.shape[1] != self.dimensions:
            raise ValueError(
                f"queries must be an (m, {self.dimensions}) array"
            )
        if not np.isfinite(queries).all():
            raise ValueError("queries must be finite")
        if count is not None:
            count("nn_queries", len(queries))
        distances, indices = self._tree.query(queries)
        return indices, distances


def nearest_neighbors_batch(
    points: np.ndarray,
    queries: np.ndarray,
    count: Optional[CountFn] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Batched nearest neighbor: for each query, its closest ``points`` row.

    Returns ``(indices, distances)``.  One-shot form of
    :class:`BatchKDTree`; callers that query the same points repeatedly
    should build the tree once instead.
    """
    return BatchKDTree(points).query(queries, count=count)


class LinearNN:
    """Brute-force nearest neighbor over a growing point set.

    The classic RRT formulation scans all samples; this matches the
    paper's description of nearest-neighbor search touching samples that
    "could be allocated in distant memory locations".  Kept alongside the
    KD-tree so experiments can compare strategies.
    """

    def __init__(self, dimensions: int) -> None:
        self.dimensions = dimensions
        self._points: List[np.ndarray] = []
        self._data: List[Any] = []

    def __len__(self) -> int:
        return len(self._points)

    def insert(self, point: Sequence[float], data: Any = None) -> None:
        """Append one point with an optional payload."""
        pt = np.asarray(point, dtype=float)
        if pt.shape != (self.dimensions,):
            raise ValueError("dimension mismatch")
        self._points.append(pt)
        self._data.append(data)

    def nearest(
        self, query: Sequence[float], count: Optional[CountFn] = None
    ) -> Tuple[np.ndarray, Any, float]:
        """Closest point by full scan: returns (point, payload, distance)."""
        if not self._points:
            raise ValueError("nearest() on an empty index")
        q = np.asarray(query, dtype=float)
        pts = np.vstack(self._points)
        d2 = np.einsum("ij,ij->i", pts - q, pts - q)
        if count is not None:
            count("nn_node_visits", len(pts))
        i = int(np.argmin(d2))
        return self._points[i], self._data[i], float(np.sqrt(d2[i]))

    def within_radius(
        self,
        query: Sequence[float],
        radius: float,
        count: Optional[CountFn] = None,
    ) -> List[Tuple[np.ndarray, Any, float]]:
        """All stored points within ``radius``, nearest first."""
        if not self._points:
            return []
        q = np.asarray(query, dtype=float)
        pts = np.vstack(self._points)
        dists = np.sqrt(np.einsum("ij,ij->i", pts - q, pts - q))
        if count is not None:
            count("nn_node_visits", len(pts))
        hits = [
            (self._points[i], self._data[i], float(dists[i]))
            for i in np.nonzero(dists <= radius)[0]
        ]
        hits.sort(key=lambda item: item[2])
        return hits
