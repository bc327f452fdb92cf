"""3D voxel occupancy grids for the aerial-robot kernels (pp3d, movtar)."""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np


class OccupancyGrid3D:
    """A metric boolean voxel grid: ``cells[zi, yi, xi]``.

    Axis order keeps z (altitude) first so horizontal slices are contiguous,
    matching how the 3D planners expand mostly-horizontal neighborhoods.
    """

    def __init__(
        self,
        cells: np.ndarray,
        resolution: float = 1.0,
        origin: Tuple[float, float, float] = (0.0, 0.0, 0.0),
    ) -> None:
        cells = np.asarray(cells, dtype=bool)
        if cells.ndim != 3:
            raise ValueError("voxel grid must be 3-dimensional")
        if resolution <= 0:
            raise ValueError("resolution must be positive")
        self.cells = cells
        self.resolution = float(resolution)
        self.origin = tuple(float(v) for v in origin)

    @staticmethod
    def empty(
        nz: int,
        ny: int,
        nx: int,
        resolution: float = 1.0,
        origin: Tuple[float, float, float] = (0.0, 0.0, 0.0),
    ) -> "OccupancyGrid3D":
        """An all-free voxel grid of the given shape."""
        return OccupancyGrid3D(
            np.zeros((nz, ny, nx), dtype=bool), resolution, origin
        )

    @property
    def shape(self) -> Tuple[int, int, int]:
        """(nz, ny, nx) voxel counts."""
        return self.cells.shape  # type: ignore[return-value]

    def in_bounds(self, zi: int, yi: int, xi: int) -> bool:
        """Whether the voxel index is inside the grid."""
        nz, ny, nx = self.cells.shape
        return 0 <= zi < nz and 0 <= yi < ny and 0 <= xi < nx

    def is_occupied(self, zi: int, yi: int, xi: int) -> bool:
        """Occupancy of one voxel; out-of-bounds counts as occupied."""
        if not self.in_bounds(zi, yi, xi):
            return True
        return bool(self.cells[zi, yi, xi])

    def world_to_cell(
        self, x: float, y: float, z: float
    ) -> Tuple[int, int, int]:
        """World (x, y, z) -> voxel (zi, yi, xi).

        Uses floor so coordinates below the origin map out of bounds
        rather than wrapping into voxel 0.
        """
        xi = math.floor((x - self.origin[0]) / self.resolution)
        yi = math.floor((y - self.origin[1]) / self.resolution)
        zi = math.floor((z - self.origin[2]) / self.resolution)
        return zi, yi, xi

    def cell_to_world(
        self, zi: int, yi: int, xi: int
    ) -> Tuple[float, float, float]:
        """Voxel center -> world (x, y, z)."""
        x = self.origin[0] + (xi + 0.5) * self.resolution
        y = self.origin[1] + (yi + 0.5) * self.resolution
        z = self.origin[2] + (zi + 0.5) * self.resolution
        return x, y, z

    def fill_box(
        self,
        z0: int,
        y0: int,
        x0: int,
        z1: int,
        y1: int,
        x1: int,
        value: bool = True,
    ) -> None:
        """Set an axis-aligned voxel box (inclusive corners, clipped)."""
        nz, ny, nx = self.cells.shape
        za, zb = sorted((z0, z1))
        ya, yb = sorted((y0, y1))
        xa, xb = sorted((x0, x1))
        za, ya, xa = max(za, 0), max(ya, 0), max(xa, 0)
        zb, yb, xb = min(zb, nz - 1), min(yb, ny - 1), min(xb, nx - 1)
        if za <= zb and ya <= yb and xa <= xb:
            self.cells[za : zb + 1, ya : yb + 1, xa : xb + 1] = value

    def occupancy_ratio(self) -> float:
        """Fraction of occupied voxels."""
        return float(self.cells.mean())

    def sample_free_cell(
        self, rng: np.random.Generator
    ) -> Tuple[int, int, int]:
        """Uniformly sample a free voxel; raises if the grid is full."""
        zs, ys, xs = np.nonzero(~self.cells)
        if len(zs) == 0:
            raise ValueError("grid has no free voxels")
        i = int(rng.integers(len(zs)))
        return int(zs[i]), int(ys[i]), int(xs[i])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        nz, ny, nx = self.cells.shape
        return (
            f"OccupancyGrid3D({nz}x{ny}x{nx}, res={self.resolution}, "
            f"occ={self.occupancy_ratio():.1%})"
        )
