"""Tests for the flat-array grid search core (bucketed Dijkstra + flat A*).

The load-bearing guarantee is backend equivalence: on any grid, the
batched/bucketed engines must return the same optimal costs, valid paths,
and operation counters as the scalar heapq references.  Hypothesis
drives random occupancy grids and cost fields through both backends.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.search.astar import weighted_astar
from repro.search.dijkstra import backward_dijkstra_grid
from repro.search.grid_core import (
    MOVES_2D_8,
    MOVES_3D_26,
    BucketQuantizationError,
    BucketQueue,
    GridSweepStats,
    astar_grid_2d,
    astar_grid_3d,
    dijkstra_grid_bucketed,
)


# -- reference search spaces (scalar, tuple-state) ---------------------------


class _Grid2DSpace:
    """8-connected reference space with pp2d's float expressions."""

    def __init__(self, cells, goal, resolution=1.0):
        self.cells = cells
        self.goal = goal
        self.res = resolution
        self.rows, self.cols = cells.shape

    def successors(self, state):
        r, c = state
        for dr, dc in MOVES_2D_8:
            nr, nc = r + dr, c + dc
            if 0 <= nr < self.rows and 0 <= nc < self.cols:
                if not self.cells[nr, nc]:
                    yield (nr, nc), math.hypot(dr, dc) * self.res

    def heuristic(self, state):
        return math.hypot(
            state[0] - self.goal[0], state[1] - self.goal[1]
        ) * self.res

    def is_goal(self, state):
        return state == self.goal


class _Grid3DSpace:
    """26-connected reference space with pp3d's float expressions."""

    def __init__(self, cells, goal, resolution=1.0):
        self.cells = cells
        self.goal = goal
        self.res = resolution
        self.nz, self.ny, self.nx = cells.shape

    def successors(self, state):
        z, y, x = state
        for dz, dy, dx in MOVES_3D_26:
            nz, ny, nx = z + dz, y + dy, x + dx
            if (
                0 <= nz < self.nz
                and 0 <= ny < self.ny
                and 0 <= nx < self.nx
                and not self.cells[nz, ny, nx]
            ):
                step = float(math.sqrt(dz * dz + dy * dy + dx * dx))
                yield (nz, ny, nx), step * self.res

    def heuristic(self, state):
        dz = state[0] - self.goal[0]
        dy = state[1] - self.goal[1]
        dx = state[2] - self.goal[2]
        return math.sqrt(dz * dz + dy * dy + dx * dx) * self.res

    def is_goal(self, state):
        return state == self.goal


def _random_grid_2d(seed, rows, cols, density):
    rng = np.random.default_rng(seed)
    cells = rng.random((rows, cols)) < density
    free = np.argwhere(~cells)
    if len(free) < 2:
        cells[0, 0] = cells[rows - 1, cols - 1] = False
        free = np.argwhere(~cells)
    start = tuple(int(v) for v in free[0])
    goal = tuple(int(v) for v in free[-1])
    return cells, start, goal


def _random_grid_3d(seed, nz, ny, nx, density):
    rng = np.random.default_rng(seed)
    cells = rng.random((nz, ny, nx)) < density
    free = np.argwhere(~cells)
    if len(free) < 2:
        cells[0, 0, 0] = cells[nz - 1, ny - 1, nx - 1] = False
        free = np.argwhere(~cells)
    start = tuple(int(v) for v in free[0])
    goal = tuple(int(v) for v in free[-1])
    return cells, start, goal


def _assert_valid_grid_path(path, cells, start, goal, moves, cost, res):
    """The path must be a real free-space walk whose steps sum to cost."""
    assert path[0] == start
    assert path[-1] == goal
    total = 0.0
    for a, b in zip(path, path[1:]):
        delta = tuple(y - x for x, y in zip(a, b))
        assert delta in moves
        assert not cells[b]
        total += math.sqrt(sum(d * d for d in delta)) * res
    assert total == pytest.approx(cost, abs=1e-9)


# -- hypothesis: bucketed Dijkstra vs heapq reference ------------------------


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    rows=st.integers(3, 14),
    cols=st.integers(3, 14),
    density=st.floats(0.0, 0.5),
    unit_costs=st.booleans(),
    n_goals=st.integers(1, 3),
)
def test_bucketed_dijkstra_matches_reference(
    seed, rows, cols, density, unit_costs, n_goals
):
    rng = np.random.default_rng(seed)
    blocked = rng.random((rows, cols)) < density
    blocked[0, 0] = False  # at least one free goal candidate
    if unit_costs:
        cost = np.ones((rows, cols))
    else:
        cost = rng.uniform(0.5, 3.0, size=(rows, cols))
    free = np.argwhere(~blocked)
    picks = rng.integers(0, len(free), size=n_goals)
    goals = [tuple(int(v) for v in free[p]) for p in picks]

    ref = backward_dijkstra_grid(cost, goals, blocked, backend="reference")
    fast = dijkstra_grid_bucketed(cost, goals, blocked)

    assert np.array_equal(np.isfinite(ref), np.isfinite(fast))
    finite = np.isfinite(ref)
    assert np.allclose(ref[finite], fast[finite], rtol=0.0, atol=1e-9)
    # Goal cells are distance zero; blocked cells are unreachable.
    for g in goals:
        assert fast[g] == 0.0
    assert np.all(np.isinf(fast[blocked]))


# -- hypothesis: flat-array A* vs weighted_astar reference -------------------


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    rows=st.integers(3, 14),
    cols=st.integers(3, 14),
    density=st.floats(0.0, 0.45),
    epsilon=st.sampled_from([1.0, 1.5, 3.0]),
)
def test_astar_2d_matches_reference(seed, rows, cols, density, epsilon):
    cells, start, goal = _random_grid_2d(seed, rows, cols, density)
    space = _Grid2DSpace(cells, goal)
    ref = weighted_astar(space, start, epsilon=epsilon)
    flat, path = astar_grid_2d(cells, start, goal, epsilon=epsilon)

    assert flat.found == ref.found
    assert flat.expansions == ref.expansions
    assert flat.generated == ref.generated
    if ref.found:
        assert flat.cost == ref.cost  # identical float arithmetic: bitwise
        assert path == ref.path
        _assert_valid_grid_path(
            path, cells, start, goal, set(MOVES_2D_8), flat.cost, 1.0
        )


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    nz=st.integers(2, 6),
    ny=st.integers(2, 7),
    nx=st.integers(2, 7),
    density=st.floats(0.0, 0.4),
    epsilon=st.sampled_from([1.0, 2.0]),
)
def test_astar_3d_matches_reference(seed, nz, ny, nx, density, epsilon):
    cells, start, goal = _random_grid_3d(seed, nz, ny, nx, density)
    space = _Grid3DSpace(cells, goal)
    ref = weighted_astar(space, start, epsilon=epsilon)
    flat, path = astar_grid_3d(cells, start, goal, epsilon=epsilon)

    assert flat.found == ref.found
    assert flat.expansions == ref.expansions
    assert flat.generated == ref.generated
    if ref.found:
        assert flat.cost == ref.cost
        assert path == ref.path
        _assert_valid_grid_path(
            path, cells, start, goal, set(MOVES_3D_26), flat.cost, 1.0
        )


def test_astar_2d_respects_resolution_and_unreachable():
    cells = np.zeros((5, 5), dtype=bool)
    cells[:, 2] = True  # full wall: right half unreachable
    flat, path = astar_grid_2d(cells, (0, 0), (0, 4), resolution=0.25)
    assert not flat.found and path == []
    cells[4, 2] = False  # open a gap
    flat, path = astar_grid_2d(cells, (0, 0), (0, 4), resolution=0.25)
    assert flat.found
    space = _Grid2DSpace(cells, (0, 4), resolution=0.25)
    ref = weighted_astar(space, (0, 0))
    assert flat.cost == ref.cost


# -- BucketQueue unit tests --------------------------------------------------


@pytest.mark.parametrize("width", [0.0, -1.0, float("inf"), float("nan")])
def test_bucket_queue_rejects_bad_width(width):
    with pytest.raises(BucketQuantizationError):
        BucketQueue(width)


def test_bucket_queue_pops_lowest_bucket_first():
    q = BucketQueue(1.0)
    q.push_batch(np.array([10, 11]), np.array([5.2, 5.7]))
    q.push_batch(np.array([3]), np.array([1.1]))
    idx, prio = q.pop_batch()
    assert idx.tolist() == [3]
    idx, prio = q.pop_batch()
    assert sorted(idx.tolist()) == [10, 11]
    assert q.pop_batch() is None
    assert not q
    assert q.pushes == 3
    assert q.pop_batches == 2


def test_bucket_queue_multi_bucket_batch_grouping():
    q = BucketQueue(1.0)
    q.push_batch(
        np.array([1, 2, 3, 4]), np.array([3.5, 0.5, 3.9, 0.1])
    )
    idx, prio = q.pop_batch()
    assert sorted(idx.tolist()) == [2, 4]
    assert sorted(prio.tolist()) == [0.1, 0.5]
    idx, _ = q.pop_batch()
    assert sorted(idx.tolist()) == [1, 3]


def test_bucket_queue_ulp_guard_clamps_to_cursor():
    # A push that bins *below* the bucket being drained (the one-ulp
    # rounding case) must land in the current bucket, not a past one —
    # otherwise it would never be popped.
    q = BucketQueue(1.0)
    q.push_batch(np.array([1]), np.array([2.5]))
    q.pop_batch()  # drains bucket 2, cursor now 2
    q.push_batch(np.array([2]), np.array([0.1]))  # bins to 0, clamped to 2
    batch = q.pop_batch()
    assert batch is not None
    assert batch[0].tolist() == [2]


# -- bucketed sweep unit tests ----------------------------------------------


def test_dijkstra_bucketed_goal_outside_raises():
    with pytest.raises(ValueError, match="outside the grid"):
        dijkstra_grid_bucketed(np.ones((4, 4)), [(4, 0)])


def test_dijkstra_bucketed_blocked_goal_skipped():
    blocked = np.zeros((4, 4), dtype=bool)
    blocked[1, 1] = True
    table = dijkstra_grid_bucketed(np.ones((4, 4)), [(1, 1)], blocked)
    assert np.all(np.isinf(table))


def test_dijkstra_bucketed_unbucketable_costs_raise():
    cost = np.ones((4, 4))
    cost[2, 2] = 0.0  # a zero-cost free cell: no positive minimum
    with pytest.raises(BucketQuantizationError):
        dijkstra_grid_bucketed(cost, [(0, 0)])


def test_dijkstra_bucketed_stats_counters():
    stats = GridSweepStats()
    table = dijkstra_grid_bucketed(np.ones((6, 6)), [(0, 0)], stats=stats)
    assert np.isfinite(table).all()
    assert stats.expansions == 36  # every cell expanded exactly once
    assert stats.pops == stats.expansions
    assert stats.pushes >= stats.pops  # stale entries inflate pushes only
    assert stats.batches > 0


def test_backward_dijkstra_backend_validation_and_fallback():
    cost = np.ones((5, 5))
    cost[3, 3] = 0.0  # unbucketable
    with pytest.raises(ValueError, match="backend"):
        backward_dijkstra_grid(cost, [(0, 0)], backend="gpu")
    with pytest.raises(BucketQuantizationError):
        dijkstra_grid_bucketed(cost, [(0, 0)])
    # auto falls back to the heapq loop and still answers
    auto = backward_dijkstra_grid(cost, [(0, 0)], backend="auto")
    ref = backward_dijkstra_grid(cost, [(0, 0)], backend="reference")
    assert np.array_equal(auto, ref)


def test_backward_dijkstra_auto_is_bitwise_equal_on_unit_costs():
    rng = np.random.default_rng(3)
    blocked = rng.random((40, 40)) < 0.3
    blocked[5, 5] = False
    cost = np.ones((40, 40))
    ref = backward_dijkstra_grid(cost, [(5, 5)], blocked, backend="reference")
    fast = dijkstra_grid_bucketed(cost, [(5, 5)], blocked)
    assert np.array_equal(ref, fast)


def test_backward_dijkstra_accepts_goal_iterator():
    # ``goals`` may be a one-shot iterator; the auto backend must not
    # consume it before a potential heap fallback.
    cost = np.ones((4, 4))
    cost[2, 2] = 0.0
    table = backward_dijkstra_grid(
        cost, iter([(0, 0)]), backend="auto"
    )
    assert table[0, 0] == 0.0
