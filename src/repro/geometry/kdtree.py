"""A KD-tree supporting incremental insertion and instrumented queries.

The sampling-based planners (rrt, rrtstar, rrtpp) spend up to half their
time in nearest-neighbor search; the paper attributes this to irregular
memory access over the sample set.  This tree supports the access pattern
those kernels need — insert one sample, query nearest / near-radius — and
counts node visits per query, which is the architecture-independent proxy
for that irregular traversal work.

srec's ``vectorized`` ICP instead batch-queries a fixed target cloud:
:class:`BatchKDTree` and :class:`CertifiedNN` run an exact 3-D kd-tree in
a small C core (``_nn.c``), compiled on first use by :mod:`repro.native`.
Its ``reference`` ICP runs :func:`scan_nearest`, a numpy full scan with
the core's distance arithmetic and tie rule, so both tiers match the same
points at the same distances.
"""

from __future__ import annotations

import ctypes
import heapq
import os
from typing import Any, Callable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.native import load_function

CountFn = Callable[[str, int], None]

#: C source of :class:`BatchKDTree`'s core, built on first use by
#: :func:`load_core`.
_CORE_SOURCE = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "_nn.c"
)


class NNCore(NamedTuple):
    """The compiled entry points of ``_nn.c``."""

    build: Callable[..., None]
    query: Callable[..., None]
    certify: Callable[..., int]


def load_core() -> NNCore:
    """The compiled kd-tree (see :func:`repro.native.load_function`)."""
    i64, f64, ptr = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
    tree = (i64, ptr, ptr, ptr, ptr)
    return NNCore(
        load_function(_CORE_SOURCE, "rtr_nn_build", None, (
            i64, ptr, ptr, ptr, ptr, ptr,
        )),
        load_function(_CORE_SOURCE, "rtr_nn_query", None, (
            *tree, i64, ptr, ptr, ptr, ptr,
        )),
        load_function(_CORE_SOURCE, "rtr_nn_certified", i64, (
            *tree, ptr, i64, ptr, ptr, ptr, ptr, ptr, f64, ptr,
        )),
    )


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
        """The k closest points, nearest first.

        Depth first, near side first, with an explicit stack so a
        degenerate (chain-shaped) tree cannot overflow Python's recursion
        limit.  A far subtree's entry carries its splitting offset: the
        pruning test runs when the entry is popped, after the near subtree
        is done, as a recursive descent would run it.
        """
        q = np.asarray(query, dtype=float)
        heap: List[Tuple[float, int, _Node]] = []  # max-heap via negated dist
        visits = 0
        tiebreak = 0
        # (node, None) visits node; (node, diff) first prunes it by diff.
        stack: List[Tuple[_Node, Optional[float]]] = []
        if self._root is not None:
            stack.append((self._root, None))
        while stack:
            node, offset = stack.pop()
            if offset is not None and not (
                len(heap) < k or offset * offset < -heap[0][0]
            ):
                continue
            visits += 1
            d2 = float(np.sum((node.point - q) ** 2))
            if len(heap) < k:
                tiebreak += 1
                heapq.heappush(heap, (-d2, tiebreak, node))
            elif d2 < -heap[0][0]:
                tiebreak += 1
                heapq.heapreplace(heap, (-d2, tiebreak, node))
            axis = node.axis
            diff = q[axis] - node.point[axis]
            near, far = (node.left, node.right) if diff < 0 else (node.right, node.left)
            if far is not None:
                stack.append((far, diff))
            if near is not None:
                stack.append((near, None))
        self.visits += visits
        if count is not None:
            count("nn_node_visits", visits)
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
        """All points within ``radius`` of the query, nearest first.

        The same explicit-stack descent as :meth:`k_nearest`; the pruning
        test does not change during the query, so a far subtree is pushed
        only if it passes.
        """
        q = np.asarray(query, dtype=float)
        r2 = radius * radius
        found: List[Tuple[np.ndarray, Any, float]] = []
        visits = 0
        stack: List[_Node] = [] if self._root is None else [self._root]
        while stack:
            node = stack.pop()
            visits += 1
            d2 = float(np.sum((node.point - q) ** 2))
            if d2 <= r2:
                found.append((node.point, node.data, float(np.sqrt(d2))))
            axis = node.axis
            diff = q[axis] - node.point[axis]
            near, far = (node.left, node.right) if diff < 0 else (node.right, node.left)
            if far is not None and diff * diff <= r2:
                stack.append(far)
            if near is not None:
                stack.append(near)
        self.visits += visits
        if count is not None:
            count("nn_node_visits", visits)
        found.sort(key=lambda item: item[2])
        return found


class BatchKDTree:
    """Exact 3-D kd-tree over a fixed ``(n, 3)`` point array, queried in batches.

    The tree and its queries run in a small C core (``_nn.c``), compiled
    on first use by :mod:`repro.native`; its arrays are owned by numpy
    and built once here.  Each candidate distance is the direct sum of
    squared coordinate differences before the square root, the
    arithmetic of :func:`_tree_distances` and :meth:`KDTree.nearest`, so
    the distances are bit-identical to both.  Exactly equal distances go
    to the lowest point index, numpy ``argmin``'s rule: every answer is
    a brute-force scan's.  Build it once per point set and query it many
    times: ICP queries one tree per iteration.  The reported work is
    ``nn_queries``, one per query point.  Raises a ``RuntimeError``
    naming the compiler if the core cannot be built.
    """

    def __init__(self, points: np.ndarray) -> None:
        points = np.ascontiguousarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != 3:
            raise ValueError("points must be an (n, 3) array")
        if len(points) == 0:
            raise ValueError("BatchKDTree() with no points")
        if not np.isfinite(points).all():
            raise ValueError("points must be finite")
        self.points = points
        self._core = load_core()
        n = len(points)
        xyz, index = np.empty((n, 3)), np.empty(n, dtype=np.int64)
        split, axis = np.empty(n), np.empty(n, dtype=np.int8)
        self._core.build(
            n, points.ctypes.data, xyz.ctypes.data, index.ctypes.data,
            split.ctypes.data, axis.ctypes.data,
        )
        self._arrays = (xyz, index, split, axis)
        self._tree_args = (n, *(a.ctypes.data for a in self._arrays))

    def _checked(self, queries: np.ndarray) -> np.ndarray:
        queries = np.ascontiguousarray(queries, dtype=float)
        if queries.ndim != 2 or queries.shape[1] != 3:
            raise ValueError("queries must be an (m, 3) array")
        if not np.isfinite(queries).all():
            raise ValueError("queries must be finite")
        return queries

    def query(
        self, queries: np.ndarray, count: Optional[CountFn] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Each query's closest point: returns ``(indices, distances)``."""
        indices, distances, _ = self.query_two(queries, count)
        return indices, distances

    def query_two(
        self, queries: np.ndarray, count: Optional[CountFn] = None
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each query's closest point and second-closest distance: returns
        ``(indices, distances, seconds)``; ``seconds`` is ``inf`` on a
        one-point tree and equals ``distances`` on an exact tie."""
        queries = self._checked(queries)
        m = len(queries)
        if count is not None:
            count("nn_queries", m)
        indices = np.empty(m, dtype=np.int64)
        distances, seconds = np.empty(m), np.empty(m)
        self._core.query(
            *self._tree_args, m, queries.ctypes.data, indices.ctypes.data,
            distances.ctypes.data, seconds.ctypes.data,
        )
        return indices, distances, seconds


def _tree_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distance between matching rows of ``a`` and ``b``.

    Squares are summed left to right (``(dx*dx + dy*dy) + dz*dz`` in 3D)
    before the square root: the arithmetic of :class:`BatchKDTree`, so a
    distance computed here equals the tree's for the same pair bit for
    bit.
    """
    diff = a - b
    squares = diff * diff
    total = squares[:, 0]
    for axis in range(1, squares.shape[1]):
        total = total + squares[:, axis]
    return np.sqrt(total)


#: Distances :func:`scan_nearest` holds per block of query rows; ~64k
#: (512 KB a buffer) stays in cache and ran fastest at srec's sizes.
_SCAN_BLOCK = 1 << 16


def scan_nearest(
    queries: np.ndarray, points: np.ndarray, count: Optional[CountFn] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Each query's closest point by a full scan: returns
    ``(indices, distances)``.

    Every query-to-point distance is computed one axis at a time,
    ``(dx*dx + dy*dy) + dz*dz`` before the square root, the arithmetic
    of :func:`_tree_distances` and :class:`BatchKDTree`; ``argmin`` on
    those distances gives equal ones to the lowest point index, the
    tree's rule.  So the answer equals ``BatchKDTree(points).query``'s
    bit for bit, with numpy alone.  Query rows are scanned in blocks to
    bound memory.  The reported work is ``nn_node_visits``, one per
    query-point pair.
    """
    m, n = len(queries), len(points)
    if count is not None:
        count("nn_node_visits", m * n)
    columns = [
        np.ascontiguousarray(points[:, a]) for a in range(points.shape[1])
    ]
    indices = np.empty(m, dtype=np.int64)
    distances = np.empty(m)
    rows = max(1, _SCAN_BLOCK // max(n, 1))
    square = np.empty((min(rows, m), n))
    for lo in range(0, m, rows):
        block = queries[lo : lo + rows]
        k = len(block)
        total = np.subtract(block[:, 0, None], columns[0])
        total *= total
        for axis in range(1, len(columns)):
            np.subtract(block[:, axis, None], columns[axis], out=square[:k])
            square[:k] *= square[:k]
            total += square[:k]
        np.sqrt(total, out=total)
        nearest = total.argmin(axis=1)
        indices[lo : lo + k] = nearest
        distances[lo : lo + k] = total[np.arange(k), nearest]
    return indices, distances


#: :class:`CertifiedNN`'s safety margin per unit of coordinate magnitude.
CERTIFICATE_MARGIN = 2.0**-40


class CertifiedNN:
    """Exact nearest neighbors of a query cloud that moves between calls.

    ICP queries one target tree with the same source points every
    iteration, and late iterations move each point far less than the gap
    between its nearest and second-nearest target points.  A point
    queried at position ``a`` (its *anchor*) records its match ``m`` and
    second-nearest distance ``d2``.  At a later position ``p``, every
    other target point ``q`` satisfies
    ``|p - q| >= |a - q| - |p - a| >= d2 - |p - a|`` (triangle
    inequality), so ``m`` is still the strictly unique nearest when
    ``|p - m| + eps < d2 - |p - a| - eps``.  Such a point keeps its match
    and only its distance is recomputed, with :func:`_tree_distances`'
    arithmetic; every other point is queried again (nearest two) and
    re-anchored.  One call of the C core does the whole pass and updates
    the anchors, matches and second distances in place.

    ``eps`` absorbs rounding.  Every distance involved is at most
    ``2 sqrt(d) M``, where ``M`` is the largest coordinate magnitude of
    the target and of every query cloud seen so far.  Each computed
    distance is within a few units in the last place (ulps) of its exact
    value.  ``eps = CERTIFICATE_MARGIN * M``, about 8192 ulps of ``M``,
    covers that with room to spare; it grows with a cloud's offset from
    the origin instead of being a fixed length.

    A re-queried point's match is the tree's nearest, the lowest index on
    an exact tie.  Where its two nearest distances lie within ``2 eps``
    of each other, the test can never pass from that anchor: since
    ``|p - m| >= |a - m| - |p - a|`` up to rounding far below ``eps``,
    it needs ``d2 - |a - m| > 2 eps``.  Each call therefore returns
    exactly what ``tree.query(queries)`` returns: the same indices and
    the same distance bits.  Counters: ``nn_queries`` (points sent to
    the tree) and ``nn_reused`` (points whose match was certified),
    which sum to the number of query points.
    """

    def __init__(self, tree: BatchKDTree) -> None:
        self.tree = tree
        self._scale = np.array([float(np.abs(tree.points).max())])
        self._anchors: Optional[np.ndarray] = None
        self._matches = np.empty(0, dtype=np.int64)
        self._second = np.empty(0)

    def query(
        self, queries: np.ndarray, count: Optional[CountFn] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Each query's closest point: returns ``(indices, distances)``.

        Row ``i`` of every call is the same moving point; the number of
        rows is fixed by the first call.
        """
        queries = self.tree._checked(queries)
        if self._anchors is None:
            self._anchors = queries.copy()
            self._matches = np.zeros(len(queries), dtype=np.int64)
            self._second = np.full(len(queries), -np.inf)
        elif queries.shape != self._anchors.shape:
            raise ValueError(
                f"queries must keep the shape {self._anchors.shape} "
                "of the first call"
            )
        distances = np.empty(len(queries))
        stale = self.tree._core.certify(
            *self.tree._tree_args, self.tree.points.ctypes.data,
            len(queries), queries.ctypes.data, self._anchors.ctypes.data,
            self._matches.ctypes.data, self._second.ctypes.data,
            distances.ctypes.data, CERTIFICATE_MARGIN,
            self._scale.ctypes.data,
        )
        if count is not None:
            count("nn_queries", stale)
            count("nn_reused", len(queries) - stale)
        return self._matches.copy(), distances


class LinearNN:
    """Exact nearest neighbors by a full scan of a growing point buffer.

    The classic RRT formulation scans all samples.  Points live in one
    ``(capacity, d)`` array that doubles when full, so a query is a few
    numpy calls over it.  Answers equal :class:`KDTree`'s bit for bit:

    - distances use the tree's arithmetic, a direct sum of squared
      coordinate differences before the square root;
    - ties go to the lowest insertion index (``argmin``, stable sort).
      That is the tree's order for exact duplicates: a later duplicate
      descends into its earlier twin's right subtree, so a query visits
      it after the twin.

    The counter ``nn_node_visits`` counts the points scanned.
    """

    def __init__(self, dimensions: int) -> None:
        if dimensions < 1:
            raise ValueError("dimensions must be >= 1")
        self.dimensions = dimensions
        self._points = np.empty((16, dimensions))
        self._data: List[Any] = []

    def __len__(self) -> int:
        return len(self._data)

    def insert(self, point: Sequence[float], data: Any = None) -> None:
        """Append one point with an optional payload."""
        pt = np.asarray(point, dtype=float)
        if pt.shape != (self.dimensions,):
            raise ValueError(
                f"expected a {self.dimensions}-dimensional point, got {pt.shape}"
            )
        n = len(self._data)
        if n == len(self._points):
            grown = np.empty((2 * n, self.dimensions))
            grown[:n] = self._points
            self._points = grown
        self._points[n] = pt
        self._data.append(data)

    def _squared_distances(
        self, query: Sequence[float], count: Optional[CountFn]
    ) -> np.ndarray:
        q = np.asarray(query, dtype=float)
        n = len(self._data)
        if count is not None:
            count("nn_node_visits", n)
        return ((self._points[:n] - q) ** 2).sum(axis=1)

    def nearest(
        self, query: Sequence[float], count: Optional[CountFn] = None
    ) -> Tuple[np.ndarray, Any, float]:
        """Closest point by full scan: returns (point, payload, distance)."""
        if not self._data:
            raise ValueError("nearest() on an empty index")
        d2 = self._squared_distances(query, count)
        i = int(np.argmin(d2))
        return self._points[i], self._data[i], float(np.sqrt(d2[i]))

    def within_radius(
        self,
        query: Sequence[float],
        radius: float,
        count: Optional[CountFn] = None,
    ) -> List[Tuple[np.ndarray, Any, float]]:
        """All stored points within ``radius``, nearest first."""
        d2 = self._squared_distances(query, count)
        hits = np.flatnonzero(d2 <= radius * radius)
        hits = hits[np.argsort(d2[hits], kind="stable")]
        return [
            (self._points[i], self._data[i], d)
            for i, d in zip(hits.tolist(), np.sqrt(d2[hits]).tolist())
        ]
