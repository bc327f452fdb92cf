"""Build and load path of the compiled C cores.

The ``array`` tier's A* (``repro/search/_astar.c``) and pfl's
``vectorized`` ray caster (``repro/geometry/_raycast.c``) are compiled
into the cache dir on first use by :mod:`repro.native`.  These
tests pin the failure modes: a missing or failing compiler must raise a
clear error without touching the pure Python ``reference`` tiers,
concurrent cold builds must never load a half-written library, and a
built library is reused, not rebuilt.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro import native
from repro.envs.cache import WorkloadCache, default_cache, set_default_cache
from repro.geometry import raycast
from repro.geometry.grid2d import OccupancyGrid2D
from repro.harness.cli import main as cli_main
from repro.harness.profiler import PhaseProfiler
from repro.perception.particle_filter import PflConfig, PflKernel
from repro.planning.pp2d import Pp2dConfig, Pp2dKernel, plan_2d
from repro.planning.pp3d import Pp3dConfig, Pp3dKernel
from repro.search import grid_core

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")

# Runs one small array-tier search and prints its outcome.
_SEARCH_SCRIPT = """
import numpy as np
from repro.search.grid_core import astar_grid_2d
cells = np.zeros((9, 9), dtype=bool)
cells[2:7, 4] = True
flat, path = astar_grid_2d(cells, (4, 0), (4, 8))
print(flat.found, flat.cost, flat.expansions, flat.pushes, flat.pops, path)
"""


@pytest.fixture
def fresh_core(tmp_path, monkeypatch):
    """An empty cache dir and no loaded core; restores both afterwards."""
    previous = default_cache()
    set_default_cache(WorkloadCache(cache_dir=str(tmp_path / "cache")))
    native.load_function.cache_clear()
    yield tmp_path / "cache"
    native.load_function.cache_clear()
    set_default_cache(previous)


def _small_grid():
    grid = OccupancyGrid2D.empty(24, 24, resolution=1.0)
    grid.fill_rect(8, 4, 10, 18)
    return grid


# Prepended to the search script: any compile in that process fails it.
_REFUSE_COMPILE = """
from repro import native
def _refuse(source, path):
    raise AssertionError(f"rebuilt {source}")
native._compile = _refuse
"""


def _run_search(cache_dir, refuse_compile=False, **env):
    environ = dict(os.environ, RTRBENCH_CACHE_DIR=str(cache_dir),
                   PYTHONPATH=SRC, **env)
    script = (_REFUSE_COMPILE if refuse_compile else "") + _SEARCH_SCRIPT
    return subprocess.Popen(
        [sys.executable, "-c", script], env=environ,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


def test_missing_compiler_fails_array_tier_only(fresh_core, monkeypatch):
    monkeypatch.setenv("CC", "/nonexistent/bin/cc")
    grid = _small_grid()
    ref = plan_2d(grid, (2, 2), (20, 20), robot_length=1.0, robot_width=1.0)
    assert ref.found
    with pytest.raises(RuntimeError) as excinfo:
        plan_2d(grid, (2, 2), (20, 20), robot_length=1.0, robot_width=1.0,
                backend="array")
    message = str(excinfo.value)
    assert "/nonexistent/bin/cc" in message
    assert grid_core._CORE_SOURCE in message
    assert not any(name.endswith(".so") for name in os.listdir(fresh_core))


def test_missing_compiler_fails_pfl_vectorized_only(fresh_core, monkeypatch):
    monkeypatch.setenv("CC", "/nonexistent/bin/cc")
    config = PflConfig(particles=50, beams=6, steps=2, map_rows=60,
                       map_cols=80)
    ref = PflKernel().run(config)
    assert ref.profiler.counters["raycast_cell_checks"] > 0
    with pytest.raises(RuntimeError) as excinfo:
        PflKernel().run(config.replace(backend="vectorized"))
    message = str(excinfo.value)
    assert "/nonexistent/bin/cc" in message
    assert raycast._CORE_SOURCE in message
    assert not any(name.endswith(".so") for name in os.listdir(fresh_core))


def test_pfl_reference_never_compiles(fresh_core, monkeypatch):
    """pfl's reference tier casts in numpy: no core is built or loaded."""
    def refuse(source, path):
        raise AssertionError(f"reference pfl compiled {source}")

    monkeypatch.setattr(native, "_compile", refuse)
    config = PflConfig(particles=50, beams=6, steps=2, map_rows=60,
                       map_cols=80)
    result = PflKernel().run(config)
    assert result.profiler.counters["raycast_cell_checks"] > 0
    assert not fresh_core.exists() or os.listdir(fresh_core) == []


def test_failed_compile_reports_compiler_stderr(fresh_core, monkeypatch):
    monkeypatch.setenv("CC", "cc --no-such-flag-for-this-test")
    cells = np.zeros((4, 4), dtype=bool)
    with pytest.raises(RuntimeError, match="no-such-flag-for-this-test"):
        grid_core.astar_grid_2d(cells, (0, 0), (3, 3))
    # The failed build leaves no temp file behind.
    assert os.listdir(fresh_core) == []


@pytest.mark.parametrize("kernel, config", [
    (Pp2dKernel(), Pp2dConfig(rows=40, cols=40, backend="array")),
    (Pp3dKernel(), Pp3dConfig(nx=16, ny=16, nz=6, backend="array")),
    (PflKernel(), PflConfig(particles=50, beams=6, steps=2, map_rows=60,
                            map_cols=80, backend="vectorized")),
])
def test_setup_builds_the_core_outside_the_roi(fresh_core, monkeypatch,
                                               kernel, config):
    state = kernel.setup(config)
    assert any(name.endswith(".so") for name in os.listdir(fresh_core))

    def refuse(source, path):
        raise AssertionError(f"the ROI compiled {source}")

    monkeypatch.setattr(native, "_compile", refuse)
    assert kernel.run_roi(config, state, PhaseProfiler()) is not None


def test_racing_cold_builds_both_succeed_and_a_rerun_reuses(tmp_path):
    cache_dir = tmp_path / "race"
    procs = [_run_search(cache_dir) for _ in range(2)]
    outputs = [proc.communicate(timeout=120) for proc in procs]
    for proc, (out, err) in zip(procs, outputs):
        assert proc.returncode == 0, err
    assert outputs[0][0] == outputs[1][0]
    assert outputs[0][0].startswith("True ")
    names = os.listdir(cache_dir)
    assert len(names) == 1 and names[0].endswith(".so")
    built = os.stat(cache_dir / names[0])

    # A second process loads the built library without compiling.
    proc = _run_search(cache_dir, refuse_compile=True)
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err
    assert out == outputs[0][0]
    again = os.stat(cache_dir / names[0])
    assert (again.st_ino, again.st_mtime_ns) == (
        built.st_ino, built.st_mtime_ns
    )
    assert os.listdir(cache_dir) == names


def test_library_path_hashes_the_compiler(tmp_path, monkeypatch):
    source = grid_core._CORE_SOURCE
    monkeypatch.setenv("CC", "cc")
    plain = native._library_path(source, str(tmp_path))
    assert native._library_path(source, str(tmp_path)) == plain
    monkeypatch.setenv("CC", "cc -fsanitize=undefined")
    sanitized = native._library_path(source, str(tmp_path))
    assert sanitized != plain
    assert native._library_path(source, str(tmp_path)) == sanitized
    # Splitting makes spacing irrelevant: the same command, the same core.
    monkeypatch.setenv("CC", "  cc   -fsanitize=undefined ")
    assert native._library_path(source, str(tmp_path)) == sanitized


def test_cache_clear_removes_built_library(fresh_core, capsys):
    cells = np.zeros((4, 4), dtype=bool)
    assert grid_core.astar_grid_2d(cells, (0, 0), (3, 3))[0].found
    grid = OccupancyGrid2D(cells)
    ones = np.ones(1)
    assert raycast.cast_rays_dda_batch(grid, ones, ones, ones, 9.0)[0] > 0
    libraries = sorted(name.split("-")[0] for name in os.listdir(fresh_core))
    assert libraries == ["_astar", "_raycast"]
    # `cache stats` and `cache clear` count the libraries they delete.
    size = sum(os.path.getsize(fresh_core / name)
               for name in os.listdir(fresh_core))
    stats = default_cache().disk_stats()
    assert (stats["entries"], stats["bytes"]) == (2, size)
    assert cli_main(["cache", "clear"]) == 0
    assert f"cleared 2 entries ({size} bytes)" in capsys.readouterr().out
    assert os.listdir(fresh_core) == []
