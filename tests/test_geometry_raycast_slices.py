"""The compiled ray caster's CPU slicing: any slice count, same bits.

``cast_rays_dda_batch`` cuts a batch into contiguous ray slices, one per
usable CPU, and casts them on threads that live for one call.  These
tests call the core directly with several slice counts and hold every
distance bit and the cell-check counter to the one-slice cast, and check
which slice count the Python caller asks for.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.envs.mapgen import wean_hall_like
from repro.geometry import raycast
from repro.geometry.grid2d import OccupancyGrid2D


def _core_cast(grid, xs, ys, dir_x, dir_y, max_range, slices):
    """The core's distances and counter for one batch at ``slices``."""
    cells = np.ascontiguousarray(grid.cells, dtype=bool)
    xs, ys, dir_x, dir_y = (
        np.ascontiguousarray(a, dtype=np.float64)
        for a in (xs, ys, dir_x, dir_y)
    )
    out = np.full(len(xs), np.nan)
    ox, oy = grid.origin
    checks = raycast.load_core()(
        cells.ctypes.data, cells.shape[0], cells.shape[1], grid.resolution,
        ox, oy, len(xs), xs.ctypes.data, ys.ctypes.data, dir_x.ctypes.data,
        dir_y.ctypes.data, float(max_range), out.ctypes.data, slices,
    )
    return out, checks


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    slices=st.sampled_from([1, 2, 3, 7]),
    size=st.sampled_from(["zero", "one", "below", "equal", "random"]),
    rows=st.integers(1, 16),
    cols=st.integers(1, 16),
    density=st.floats(0.0, 0.6),
    resolution=st.sampled_from([0.1, 0.25, 1.0]),
    origin=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
    max_range=st.floats(0.05, 12.0),
)
def test_slices_match_one_slice_bitwise(
    seed, slices, size, rows, cols, density, resolution, origin, max_range
):
    rng = np.random.default_rng(seed)
    n = {
        "zero": 0, "one": 1, "below": slices - 1, "equal": slices,
        "random": int(rng.integers(0, 300)),
    }[size]
    grid = OccupancyGrid2D(
        rng.random((rows, cols)) < density, resolution, origin
    )
    # Origins over the map and a one-cell rim off it (so some start
    # off-map or in occupied cells); a third sit on exact cell borders.
    xs = origin[0] + rng.uniform(-1.0, cols + 1.0, n) * resolution
    ys = origin[1] + rng.uniform(-1.0, rows + 1.0, n) * resolution
    border = rng.random(n) < 1 / 3
    k = int(border.sum())
    xs[border] = origin[0] + rng.integers(0, cols + 1, k) * resolution
    ys[border] = origin[1] + rng.integers(0, rows + 1, k) * resolution
    angles = rng.uniform(-np.pi, np.pi, n)
    dir_x, dir_y = np.cos(angles), np.sin(angles)
    # Some exactly axis-parallel rays: a zero direction component.
    axis = rng.random(n) < 0.2
    dir_x[axis] = 0.0
    dir_y[axis] = np.where(rng.random(int(axis.sum())) < 0.5, 1.0, -1.0)

    one, one_checks = _core_cast(grid, xs, ys, dir_x, dir_y, max_range, 1)
    split, split_checks = _core_cast(
        grid, xs, ys, dir_x, dir_y, max_range, slices
    )
    assert one.tobytes() == split.tobytes()
    assert one_checks == split_checks
    assert not np.isnan(split).any()  # every ray's slot was written


def test_more_slices_than_rays_and_odd_counts_are_clamped():
    grid = wean_hall_like(rows=40, cols=50, resolution=0.25, seed=1)
    rng = np.random.default_rng(5)
    n = 5
    xs = rng.uniform(0.0, grid.width, n)
    ys = rng.uniform(0.0, grid.height, n)
    angles = rng.uniform(-np.pi, np.pi, n)
    args = (grid, xs, ys, np.cos(angles), np.sin(angles), 12.0)
    one, one_checks = _core_cast(*args, 1)
    for slices in (-3, 0, n + 1, 1000):
        out, checks = _core_cast(*args, slices)
        assert out.tobytes() == one.tobytes()
        assert checks == one_checks


def _spy_on_slices(monkeypatch):
    """Record the slice count of each core call ``cast_rays_dda_batch``
    makes; the calls still run the real core."""
    core = raycast.load_core()
    seen = []

    def spy(*args):
        seen.append(args[-1])
        return core(*args)

    monkeypatch.setattr(raycast, "load_core", lambda: spy)
    return seen


def _rays(n, seed=0):
    grid = wean_hall_like(rows=60, cols=80, resolution=0.25, seed=seed)
    rng = np.random.default_rng(seed)
    free = np.argwhere(~grid.cells)
    sel = free[rng.integers(0, len(free), n)]
    xs = (sel[:, 1] + 0.5) * grid.resolution
    ys = (sel[:, 0] + 0.5) * grid.resolution
    return grid, xs, ys, rng.uniform(-np.pi, np.pi, n)


def test_one_usable_cpu_casts_one_slice(monkeypatch):
    seen = _spy_on_slices(monkeypatch)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    grid, xs, ys, angles = _rays(8 * raycast.MIN_RAYS_PER_SLICE)
    raycast.cast_rays_dda_batch(grid, xs, ys, angles, 12.0)
    assert seen == [1]


def test_small_batch_casts_one_slice(monkeypatch):
    seen = _spy_on_slices(monkeypatch)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)),
                        raising=False)
    grid, xs, ys, angles = _rays(raycast.MIN_RAYS_PER_SLICE - 1)
    raycast.cast_rays_dda_batch(grid, xs, ys, angles, 12.0)
    assert seen == [1]


@pytest.mark.parametrize("cpus, n_slices_of_min, expected", [
    (8, 2, 2), (8, 3.5, 3), (2, 8, 2), (3, 100, 3),
])
def test_slices_follow_usable_cpus_and_batch_size(
    monkeypatch, cpus, n_slices_of_min, expected
):
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(cpus)), raising=False)
    n = int(n_slices_of_min * raycast.MIN_RAYS_PER_SLICE)
    assert raycast.ray_slices(n) == expected


def test_cpu_count_stands_in_without_affinity(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert raycast.ray_slices(100 * raycast.MIN_RAYS_PER_SLICE) == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert raycast.ray_slices(100 * raycast.MIN_RAYS_PER_SLICE) == 1


def test_batch_above_slicing_size_matches_reference_tier():
    """A batch large enough to split (on a host with more than one usable
    CPU) still returns the lock-step reference's bits and counter."""
    grid, xs, ys, angles = _rays(4 * raycast.MIN_RAYS_PER_SLICE + 3, seed=2)
    totals = {"batch": [], "lockstep": []}
    vec = raycast.cast_rays_dda_batch(
        grid, xs, ys, angles, 12.0,
        count=lambda _, k: totals["batch"].append(k),
    )
    ref = raycast.cast_rays_dda_lockstep(
        grid, xs, ys, angles, 12.0,
        count=lambda _, k: totals["lockstep"].append(k),
    )
    assert vec.tobytes() == ref.tobytes()
    assert totals["batch"] == totals["lockstep"]
