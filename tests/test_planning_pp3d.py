"""Tests for 3D path planning (05.pp3d)."""

import math

import numpy as np
import pytest

from repro.envs.mapgen import campus_like_3d
from repro.geometry.grid3d import OccupancyGrid3D
from repro.harness.profiler import PhaseProfiler
from repro.planning.pp3d import (
    Pp3dConfig,
    Pp3dKernel,
    far_apart_free_voxels,
    plan_3d,
)


@pytest.fixture
def open_volume():
    return OccupancyGrid3D.empty(10, 10, 10)


def test_plan_in_open_volume_is_diagonal(open_volume):
    result = plan_3d(open_volume, (1, 1, 1), (8, 8, 8))
    assert result.found
    assert result.cost == pytest.approx(7 * math.sqrt(3), rel=0.05)


def test_path_voxels_are_free_and_adjacent(open_volume):
    open_volume.fill_box(3, 3, 3, 6, 6, 6)
    result = plan_3d(open_volume, (1, 1, 1), (8, 8, 8))
    assert result.found
    for z, y, x in result.path:
        assert not open_volume.is_occupied(z, y, x)
    for a, b in zip(result.path[:-1], result.path[1:]):
        assert max(abs(a[i] - b[i]) for i in range(3)) == 1


def test_drone_flies_over_obstacle():
    """A wall spanning all low altitudes forces an altitude change."""
    grid = OccupancyGrid3D.empty(8, 10, 10)
    grid.fill_box(0, 4, 0, 4, 5, 9)  # wall up to z=4
    result = plan_3d(grid, (0, 1, 5), (0, 8, 5))
    assert result.found
    assert max(z for z, _, _ in result.path) > 4


def test_flying_under_overpass():
    """The campus overpass leaves clearance underneath."""
    grid = campus_like_3d(nx=48, ny=48, nz=16, seed=0)
    start, goal = far_apart_free_voxels(grid)
    result = plan_3d(grid, start, goal)
    assert result.found


def test_unreachable_returns_not_found():
    grid = OccupancyGrid3D.empty(6, 6, 6)
    grid.fill_box(0, 3, 0, 5, 3, 5)  # solid slab across all z
    result = plan_3d(grid, (1, 1, 1), (1, 5, 1))
    assert not result.found


def test_profiling_has_search_and_collision():
    grid = campus_like_3d(nx=32, ny=32, nz=12, seed=1)
    prof = PhaseProfiler()
    start, goal = far_apart_free_voxels(grid)
    plan_3d(grid, start, goal, profiler=prof)
    combined = prof.fraction("search") + prof.fraction("collision")
    assert combined > 0.7


def test_kernel_end_to_end_small():
    result = Pp3dKernel().run(Pp3dConfig(nx=48, ny=48, nz=12))
    assert result.output.found
    assert result.output.expansions > 0


def _argwhere_endpoints(grid):
    """The index-list formulation the broadcast distance replaced."""
    free = np.argwhere(~grid.cells)
    nz, ny, nx = grid.shape

    def find_near(tz, ty, tx):
        idx = np.argmin(np.abs(free - np.array([tz, ty, tx])).sum(axis=1))
        return tuple(int(v) for v in free[idx])

    return (
        find_near(1, int(ny * 0.08), int(nx * 0.08)),
        find_near(1, int(ny * 0.92), int(nx * 0.92)),
    )


@pytest.mark.parametrize("seed", range(30))
def test_far_apart_endpoints_match_argwhere_formulation(seed):
    grid = campus_like_3d(seed=seed)
    assert far_apart_free_voxels(grid) == _argwhere_endpoints(grid)


def test_far_apart_endpoints_break_ties_in_c_order():
    grid = OccupancyGrid3D.empty(4, 10, 10)
    grid.cells[1, 0, 0] = True  # the start target itself
    # Equidistant free candidates: (0,0,0), (1,0,1), (1,1,0), (2,0,0).
    start, _ = far_apart_free_voxels(grid)
    assert start == (0, 0, 0) == _argwhere_endpoints(grid)[0]


def test_far_apart_endpoints_need_a_free_voxel():
    grid = OccupancyGrid3D.empty(3, 5, 5)
    grid.cells[:] = True
    with pytest.raises(ValueError, match="no free voxel"):
        far_apart_free_voxels(grid)
