"""2D occupancy grids.

The occupancy grid is the canonical environment representation for the
mobile-robot kernels: pfl ray-casts against it, pp2d plans over it, and the
map generators in :mod:`repro.envs.mapgen` produce instances of it.  Cells
are booleans (``True`` = occupied); the grid also carries a metric
resolution and a world-frame origin so kernels can work in meters.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Optional, Tuple

import numpy as np


class OccupancyGrid2D:
    """A metric boolean occupancy grid.

    ``cells[row, col]`` with row ~ y and col ~ x; ``resolution`` is the
    cell edge length in meters; ``origin`` is the world coordinate of the
    (0, 0) cell corner.
    """

    def __init__(
        self,
        cells: np.ndarray,
        resolution: float = 1.0,
        origin: Tuple[float, float] = (0.0, 0.0),
    ) -> None:
        cells = np.asarray(cells, dtype=bool)
        if cells.ndim != 2:
            raise ValueError("occupancy grid must be 2-dimensional")
        if resolution <= 0:
            raise ValueError("resolution must be positive")
        self.cells = cells
        self.resolution = float(resolution)
        self.origin = (float(origin[0]), float(origin[1]))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def empty(
        rows: int,
        cols: int,
        resolution: float = 1.0,
        origin: Tuple[float, float] = (0.0, 0.0),
    ) -> "OccupancyGrid2D":
        """An all-free grid of the given shape."""
        return OccupancyGrid2D(
            np.zeros((rows, cols), dtype=bool), resolution, origin
        )

    def copy(self) -> "OccupancyGrid2D":
        """Deep copy (cells included)."""
        return OccupancyGrid2D(self.cells.copy(), self.resolution, self.origin)

    # -- shape and conversion ----------------------------------------------

    @property
    def rows(self) -> int:
        """Grid height in cells."""
        return self.cells.shape[0]

    @property
    def cols(self) -> int:
        """Grid width in cells."""
        return self.cells.shape[1]

    @property
    def width(self) -> float:
        """World-frame width (x extent) in meters."""
        return self.cols * self.resolution

    @property
    def height(self) -> float:
        """World-frame height (y extent) in meters."""
        return self.rows * self.resolution

    def world_to_cell(self, x: float, y: float) -> Tuple[int, int]:
        """World (x, y) -> (row, col).  No bounds check.

        Uses floor (not truncation) so points left/below the origin map to
        negative — out-of-bounds — indices rather than wrapping into cell 0.
        """
        col = math.floor((x - self.origin[0]) / self.resolution)
        row = math.floor((y - self.origin[1]) / self.resolution)
        return row, col

    def cell_to_world(self, row: int, col: int) -> Tuple[float, float]:
        """Cell center -> world (x, y)."""
        x = self.origin[0] + (col + 0.5) * self.resolution
        y = self.origin[1] + (row + 0.5) * self.resolution
        return x, y

    def in_bounds(self, row: int, col: int) -> bool:
        """Whether (row, col) indexes a real cell."""
        return 0 <= row < self.rows and 0 <= col < self.cols

    def in_bounds_world(self, x: float, y: float) -> bool:
        """Whether world point (x, y) falls inside the grid extent."""
        return (
            self.origin[0] <= x < self.origin[0] + self.width
            and self.origin[1] <= y < self.origin[1] + self.height
        )

    # -- occupancy ----------------------------------------------------------

    def is_occupied(self, row: int, col: int) -> bool:
        """Occupancy of one cell; out-of-bounds counts as occupied."""
        if not self.in_bounds(row, col):
            return True
        return bool(self.cells[row, col])

    def is_occupied_world(self, x: float, y: float) -> bool:
        """Occupancy at a world point; outside the map counts as occupied."""
        row, col = self.world_to_cell(x, y)
        return self.is_occupied(row, col)

    def occupied_world_batch(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Vectorized world-point occupancy; out-of-bounds -> occupied."""
        cols = np.floor(
            (np.asarray(xs) - self.origin[0]) / self.resolution
        ).astype(int)
        rows = np.floor(
            (np.asarray(ys) - self.origin[1]) / self.resolution
        ).astype(int)
        inside = (
            (rows >= 0) & (rows < self.rows) & (cols >= 0) & (cols < self.cols)
        )
        # Flat clipped gather + bounds mask instead of boolean fancy
        # indexing: one contiguous take over the whole batch (out-of-bounds
        # indices clip to some valid cell, then the mask forces them
        # occupied), which is what keeps the batched collision checks fast.
        occupied = np.take(
            self.cells.ravel(), rows * self.cols + cols, mode="clip"
        )
        return occupied | ~inside

    def set_occupied(self, row: int, col: int, value: bool = True) -> None:
        """Set the occupancy of one in-bounds cell."""
        if not self.in_bounds(row, col):
            raise IndexError(f"cell ({row}, {col}) out of bounds")
        self.cells[row, col] = value

    def fill_rect(
        self, row0: int, col0: int, row1: int, col1: int, value: bool = True
    ) -> None:
        """Set an axis-aligned block of cells (inclusive corners, clipped)."""
        r0, r1 = sorted((row0, row1))
        c0, c1 = sorted((col0, col1))
        r0, c0 = max(r0, 0), max(c0, 0)
        r1, c1 = min(r1, self.rows - 1), min(c1, self.cols - 1)
        if r0 <= r1 and c0 <= c1:
            self.cells[r0 : r1 + 1, c0 : c1 + 1] = value

    def fill_border(self, thickness: int = 1) -> None:
        """Occupy a border of the given cell thickness around the map."""
        t = thickness
        self.cells[:t, :] = True
        self.cells[-t:, :] = True
        self.cells[:, :t] = True
        self.cells[:, -t:] = True

    def occupancy_ratio(self) -> float:
        """Fraction of occupied cells."""
        return float(self.cells.mean())

    # -- derived grids -------------------------------------------------------

    def inflate(self, radius_m: float) -> "OccupancyGrid2D":
        """Return a grid with obstacles dilated by ``radius_m`` (Chebyshev).

        Planners use inflated grids to approximate a circular robot; the
        dilation is done with whole-grid numpy shifts, one 8-neighbor
        step per radius cell, so it is O(cells * radius_cells) rather
        than per-cell neighborhoods.
        """
        r = int(np.ceil(radius_m / self.resolution))
        if r <= 0:
            return self.copy()
        out = self.cells.copy()
        for _ in range(r):
            shifted = out.copy()
            shifted[1:, :] |= out[:-1, :]
            shifted[:-1, :] |= out[1:, :]
            shifted[:, 1:] |= out[:, :-1]
            shifted[:, :-1] |= out[:, 1:]
            shifted[1:, 1:] |= out[:-1, :-1]
            shifted[1:, :-1] |= out[:-1, 1:]
            shifted[:-1, 1:] |= out[1:, :-1]
            shifted[:-1, :-1] |= out[1:, 1:]
            out = shifted
        return OccupancyGrid2D(out, self.resolution, self.origin)

    def scaled(self, factor: int) -> "OccupancyGrid2D":
        """Upsample each cell into a ``factor x factor`` block.

        This reproduces the paper's Fig. 21 methodology of scaling the
        comparison map "by different factors to evaluate the implementations
        in larger (or finer-resolution) environments".
        """
        if factor < 1:
            raise ValueError("scale factor must be >= 1")
        cells = np.repeat(np.repeat(self.cells, factor, axis=0), factor, axis=1)
        return OccupancyGrid2D(cells, self.resolution / factor, self.origin)

    # -- iteration / sampling -------------------------------------------------

    def free_cells(self) -> Iterator[Tuple[int, int]]:
        """Iterate (row, col) over free cells."""
        free_rows, free_cols = np.nonzero(~self.cells)
        for row, col in zip(free_rows.tolist(), free_cols.tolist()):
            yield row, col

    def sample_free_cell(
        self, rng: np.random.Generator
    ) -> Tuple[int, int]:
        """Uniformly sample a free cell; raises if the map is full."""
        free_rows, free_cols = np.nonzero(~self.cells)
        if len(free_rows) == 0:
            raise ValueError("grid has no free cells")
        i = int(rng.integers(len(free_rows)))
        return int(free_rows[i]), int(free_cols[i])

    def sample_free_point(
        self, rng: np.random.Generator
    ) -> Tuple[float, float]:
        """Uniformly sample a world point whose cell is free."""
        row, col = self.sample_free_cell(rng)
        return self.cell_to_world(row, col)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"OccupancyGrid2D({self.rows}x{self.cols}, "
            f"res={self.resolution}, occ={self.occupancy_ratio():.1%})"
        )
