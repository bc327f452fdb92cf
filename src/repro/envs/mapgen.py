"""Procedural occupancy-map generators.

Each generator reproduces the structural character of one of the paper's
inputsets (see DESIGN.md section 2):

* :func:`wean_hall_like` — an indoor floorplan of corridors and rooms,
  standing in for the CMU Wean Hall map used by pfl;
* :func:`city_like` — an urban street grid with solid building blocks,
  standing in for the MovingAI ``Boston_1_1024`` snapshot used by pp2d;
* :func:`campus_like_3d` — an outdoor voxel volume with buildings, trees,
  and an overpass, standing in for the Freiburg campus scan used by pp3d;
* :func:`comparison_map` — the small map used by PythonRobotics'
  ``a_star.py`` demo, for the Fig. 21 library comparison.

All generators are deterministic in their seed, which is what lets the
expensive ones (the floorplan, city, and campus builders) be memoized by
content key through :mod:`repro.envs.cache`: repeated calls with
identical parameters in one process reuse one build instead of
re-carving the same map.  Callers receive a private deep copy and may
mutate it freely; bypass the cache via ``<generator>.build_uncached``.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.envs.cache import cached_workload
from repro.geometry.grid2d import OccupancyGrid2D
from repro.geometry.grid3d import OccupancyGrid3D

# The smallest floorplan :func:`wean_hall_like` lays out as one connected
# free space, so any two free cells (every pfl region's start and goal)
# have a path between them.  Smaller maps fail in pfl setup or leave a
# pocket that some seeds' trajectories cannot reach.
#
# Rows >= 5: each room's depth is drawn from [rows // 10, rows // 5),
# which is empty below 5 rows (rooms are laid out on every map 9 or more
# columns wide).  From 5 rows on, both corridor centre rows lie inside
# the one-cell border.
#
# Columns >= 16: the corridors span columns 2..cols-3, and the only
# walls added after carving are max(2, cols // 60) two-cell pillars,
# each in the row just above a corridor's centre row (the *pillar row*).
# The free space stays connected when no run of pillars closes a pillar
# row or a room's side of it:
# - a corridor is cols - 4 cells wide, so two pillars can close it up to
#   cols = 8 and cut the map in two (e.g. 100 x 8, seed 5);
# - below 80 rows the upper corridor is 3 rows high and its rooms open
#   onto its pillar row.  A room is at least cols // 16 + 1 cells wide:
#   one cell below 16 columns, and a one-cell room at the corridor's far
#   end touches only 4 pillar-row cells, which two pillars can fill
#   (e.g. 12 x 15, seed 388: no path for region 4).
# From 16 columns on, a room touches at least max(cols // 16, 2) + 3
# pillar-row cells and a corridor is cols - 4 cells wide: both more than
# the max(4, 2 * (cols // 60)) cells the pillars fill.
WEAN_HALL_MIN_ROWS = 5
WEAN_HALL_MIN_COLS = 16


@cached_workload("wean_hall_like")
def wean_hall_like(
    rows: int = 160,
    cols: int = 200,
    resolution: float = 0.25,
    seed: int = 0,
) -> OccupancyGrid2D:
    """An indoor corridor-and-rooms floorplan.

    Structure: a solid building slab, two long horizontal corridors and
    several vertical connectors carved out, then rooms carved off the
    corridors with door gaps.  Particles localize slowly in the long
    self-similar corridors — the property pfl needs from Wean Hall.
    """
    rng = np.random.default_rng(seed)
    grid = OccupancyGrid2D(
        np.ones((rows, cols), dtype=bool), resolution=resolution
    )
    base_w = max(3, rows // 20)
    upper = rows // 4
    lower = 3 * rows // 4
    # Two long horizontal corridors of *different* widths — identical
    # corridors make the building periodic and global localization
    # ambiguous in principle.
    widths = {upper: base_w, lower: base_w + 2}
    for row, w in widths.items():
        grid.fill_rect(row - w // 2, 2, row + w // 2, cols - 3, False)
    # Vertical connectors at irregular positions.
    n_connectors = max(2, cols // 50)
    connector_cols = sorted(
        int(c) for c in rng.choice(
            np.arange(cols // 8, cols - cols // 8),
            size=n_connectors,
            replace=False,
        )
    )
    for c in connector_cols:
        w = int(rng.integers(base_w - 1, base_w + 2))
        grid.fill_rect(upper, c - w // 2, lower, c + w // 2, False)
    # Rooms off each corridor with varied sizes and door gaps, so lidar
    # signatures differ along the building.
    for corridor_row, direction in ((upper, -1), (lower, 1)):
        c = 4
        while c + cols // 16 < cols - 4:
            room_w = int(rng.integers(cols // 16, cols // 8))
            if c + room_w >= cols - 4:
                break
            if rng.random() < 0.8:
                room_depth = int(rng.integers(rows // 10, rows // 5))
                w = widths[corridor_row]
                r0 = corridor_row + direction * (w // 2 + 1)
                r1 = r0 + direction * room_depth
                grid.fill_rect(r0, c, r1, c + room_w, False)
                # Door: small gap connecting room and corridor.
                door_c = c + int(rng.integers(1, max(2, room_w - 1)))
                grid.fill_rect(
                    corridor_row,
                    door_c,
                    r0,
                    min(door_c + 1, cols - 1),
                    False,
                )
            c += room_w + 2
    # A few corridor pillars: distinctive close-range lidar landmarks.
    for _ in range(max(2, cols // 60)):
        row = upper if rng.random() < 0.5 else lower
        c = int(rng.integers(cols // 8, cols - cols // 8))
        if not grid.cells[row, c]:
            grid.fill_rect(row - 1, c, row - 1, c + 1, True)
    grid.fill_border(1)
    return grid


@cached_workload("city_like")
def city_like(
    rows: int = 256,
    cols: int = 256,
    resolution: float = 1.0,
    block: int = 24,
    street: int = 8,
    seed: int = 0,
) -> OccupancyGrid2D:
    """An urban street grid: solid building blocks separated by streets.

    Buildings are randomly eroded at the corners and occasionally merged
    across a street so routes must detour, giving the long, obstacle-rich
    paths pp2d measures on Boston_1_1024.
    """
    rng = np.random.default_rng(seed)
    grid = OccupancyGrid2D.empty(rows, cols, resolution=resolution)
    pitch = block + street
    for r0 in range(street, rows - 1, pitch):
        for c0 in range(street, cols - 1, pitch):
            if rng.random() < 0.04:
                continue  # an open plaza
            # Erode the block a little so building shapes vary.
            dr0 = int(rng.integers(0, block // 4 + 1))
            dc0 = int(rng.integers(0, block // 4 + 1))
            dr1 = int(rng.integers(0, block // 4 + 1))
            dc1 = int(rng.integers(0, block // 4 + 1))
            grid.fill_rect(
                r0 + dr0, c0 + dc0, r0 + block - 1 - dr1, c0 + block - 1 - dc1
            )
            # Occasionally bridge to the next block, blocking a street.
            if rng.random() < 0.15 and c0 + pitch + block < cols:
                bridge_r = r0 + block // 2
                grid.fill_rect(
                    bridge_r, c0 + block - 1, bridge_r + 2, c0 + pitch + 1
                )
    grid.fill_border(1)
    return grid


@cached_workload("campus_like_3d")
def campus_like_3d(
    nx: int = 96,
    ny: int = 96,
    nz: int = 24,
    resolution: float = 1.0,
    seed: int = 0,
) -> OccupancyGrid3D:
    """An outdoor campus volume for UAV planning.

    Buildings of varying heights (some too tall to overfly cheaply),
    scattered trees (thin tall columns with canopies), and one elevated
    overpass a UAV can fly under — so the third dimension genuinely
    matters, as in the Freiburg campus scan.
    """
    rng = np.random.default_rng(seed)
    grid = OccupancyGrid3D.empty(nz, ny, nx, resolution=resolution)
    # Buildings.
    n_buildings = (nx * ny) // 600
    for _ in range(n_buildings):
        w = int(rng.integers(8, 20))
        d = int(rng.integers(8, 20))
        h = int(rng.integers(nz // 3, nz))
        x0 = int(rng.integers(2, max(3, nx - w - 2)))
        y0 = int(rng.integers(2, max(3, ny - d - 2)))
        grid.fill_box(0, y0, x0, h - 1, y0 + d - 1, x0 + w - 1)
    # Trees: trunk + canopy.
    n_trees = (nx * ny) // 400
    for _ in range(n_trees):
        x = int(rng.integers(2, nx - 3))
        y = int(rng.integers(2, ny - 3))
        trunk_h = int(rng.integers(3, max(4, nz // 3)))
        grid.fill_box(0, y, x, trunk_h, y, x)
        grid.fill_box(trunk_h, y - 1, x - 1, min(trunk_h + 2, nz - 1), y + 1, x + 1)
    # One overpass spanning the middle: solid deck at mid altitude with
    # clearance underneath.
    deck_z = nz // 3
    y_mid = ny // 2
    grid.fill_box(deck_z, y_mid - 2, 0, deck_z + 1, y_mid + 2, nx - 1)
    # Pillars.
    for x in range(4, nx - 4, 16):
        grid.fill_box(0, y_mid - 1, x, deck_z, y_mid + 1, x + 1)
    # Ground plane is implicit (z=0 voxels free unless built on); close the
    # volume's vertical walls so the UAV cannot leave the map.
    grid.cells[:, 0, :] = True
    grid.cells[:, -1, :] = True
    grid.cells[:, :, 0] = True
    grid.cells[:, :, -1] = True
    return grid


def comparison_map(resolution: float = 1.0) -> OccupancyGrid2D:
    """The PythonRobotics ``a_star.py`` demo map (paper Fig. 21-(a)).

    A 60x60 arena with a border wall, one long vertical wall rising from
    the bottom at x=20, and one wall descending from the top at x=40 —
    forcing an S-shaped route between the demo's start (10, 10) and goal
    (50, 50).
    """
    size = 62
    grid = OccupancyGrid2D.empty(size, size, resolution=resolution)
    grid.fill_border(1)
    # Wall from the floor up to y=40 at x=20.
    grid.fill_rect(1, 20, 40, 20)
    # Wall from the ceiling down to y=20 at x=40.
    grid.fill_rect(size - 2, 40, 20, 40)
    return grid
