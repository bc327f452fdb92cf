"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest


@pytest.fixture(autouse=True, scope="session")
def _isolated_workload_cache(tmp_path_factory):
    """Point the workload cache at a session-temporary directory.

    Keeps test runs from compiling the C cores into the repository's
    ``.rtrbench_cache/``: the session builds each core once into a temp
    dir, and forked suite workers inherit the redirected cache.
    """
    from repro.envs.cache import WorkloadCache, set_default_cache

    cache_dir = tmp_path_factory.mktemp("rtrbench_cache")
    set_default_cache(WorkloadCache(cache_dir=str(cache_dir)))
    yield
    set_default_cache(None)


@pytest.fixture(autouse=True, scope="session")
def _isolated_result_store(tmp_path_factory):
    """Point the run-record history at a session-temporary directory.

    Keeps CLI-driven tests from appending ``.rtrbench_results/`` into
    the repository while still exercising the store end to end.
    """
    import os

    results_dir = tmp_path_factory.mktemp("rtrbench_results")
    previous = os.environ.get("RTRBENCH_RESULTS_DIR")
    os.environ["RTRBENCH_RESULTS_DIR"] = str(results_dir)
    yield
    if previous is None:
        os.environ.pop("RTRBENCH_RESULTS_DIR", None)
    else:
        os.environ["RTRBENCH_RESULTS_DIR"] = previous


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic random generator for tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def small_grid():
    """A 20x20 grid with a single central obstacle block."""
    from repro.geometry.grid2d import OccupancyGrid2D

    grid = OccupancyGrid2D.empty(20, 20, resolution=1.0)
    grid.fill_border(1)
    grid.fill_rect(8, 8, 12, 12)
    return grid
