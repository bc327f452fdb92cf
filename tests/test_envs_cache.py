"""Tests for the content-keyed workload memo and the core dir it names."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.envs.cache import (
    WorkloadCache,
    cached_workload,
    content_key,
    default_cache,
    set_default_cache,
)


@pytest.fixture
def cache(tmp_path):
    return WorkloadCache(cache_dir=str(tmp_path / "cache"))


# -- keying --------------------------------------------------------------------


def test_content_key_stable_and_param_sensitive():
    a = content_key("map", {"rows": 10, "seed": 0})
    assert a == content_key("map", {"seed": 0, "rows": 10})
    assert a != content_key("map", {"rows": 11, "seed": 0})
    assert a != content_key("cloud", {"rows": 10, "seed": 0})


# -- memo ----------------------------------------------------------------------


def test_builds_once_then_serves_from_memory(cache):
    calls = []

    def build():
        calls.append(1)
        return np.arange(4)

    first = cache.get_or_build("m", {"n": 4}, build)
    second = cache.get_or_build("m", {"n": 4}, build)
    assert len(calls) == 1
    assert np.array_equal(first, second)
    assert cache.stats.misses == 1
    assert cache.stats.memory_hits == 1
    assert cache.stats.hits == 1


def test_lru_evicts_the_oldest_entry(tmp_path):
    cache = WorkloadCache(
        cache_dir=str(tmp_path / "cache"), max_memory_items=1
    )
    cache.get_or_build("m", {"k": 1}, lambda: "one")
    cache.get_or_build("m", {"k": 2}, lambda: "two")  # evicts k=1
    calls = []
    value = cache.get_or_build(
        "m", {"k": 1}, lambda: calls.append(1) or "one"
    )
    assert value == "one"
    assert calls == [1]  # evicted, so rebuilt
    assert cache.stats.misses == 3 and cache.stats.hits == 0


def test_building_a_workload_writes_nothing_to_cache_dir(tmp_path):
    from repro.envs.mapgen import city_like, wean_hall_like
    from repro.envs.pointcloud import living_room

    cache_dir = tmp_path / "cache"
    previous = default_cache()
    set_default_cache(WorkloadCache(cache_dir=str(cache_dir)))
    try:
        for _ in range(2):
            wean_hall_like(rows=40, cols=50, seed=5)
            city_like(rows=48, cols=48, seed=5)
            living_room(n_points=500, seed=5)
        assert default_cache().stats.misses == 3
        assert default_cache().stats.hits == 3
    finally:
        set_default_cache(previous)
    assert not cache_dir.exists()


def test_mutating_a_hit_does_not_poison_the_cache(cache):
    cache.get_or_build("m", {}, lambda: np.zeros(3))
    hit = cache.get_or_build("m", {}, lambda: np.zeros(3))
    assert cache.stats.memory_hits == 1
    hit[:] = 99.0
    clean = cache.get_or_build("m", {}, lambda: pytest.fail("rebuilt"))
    assert np.array_equal(clean, np.zeros(3))
    # The miss's own return value is a copy too.
    cache.clear()
    built = cache.get_or_build("m", {}, lambda: np.zeros(3))
    built[:] = 99.0
    again = cache.get_or_build("m", {}, lambda: pytest.fail("rebuilt"))
    assert np.array_equal(again, np.zeros(3))


def test_disabled_cache_always_builds(tmp_path):
    cache = WorkloadCache(
        cache_dir=str(tmp_path / "cache"), enabled=False
    )
    calls = []
    for _ in range(3):
        cache.get_or_build("m", {}, lambda: calls.append(1) or "v")
    assert len(calls) == 3
    assert cache.stats.hits == 0 and cache.stats.misses == 0


def test_clear_drops_both_layers(cache):
    # The two things clear() owns: the memo and the compiled cores.
    cache.get_or_build("m", {}, lambda: "v")
    os.makedirs(cache.cache_dir)
    for name in ("_astar-0123.so", "keep.txt"):
        with open(os.path.join(cache.cache_dir, name), "w") as fh:
            fh.write("x")
    assert cache.disk_stats()["entries"] == 1
    cache.clear()
    calls = []
    cache.get_or_build("m", {}, lambda: calls.append(1) or "v")
    assert calls == [1]
    assert os.listdir(cache.cache_dir) == ["keep.txt"]


# -- decorator -----------------------------------------------------------------


def test_cached_workload_decorator(tmp_path):
    previous = default_cache()
    set_default_cache(WorkloadCache(cache_dir=str(tmp_path / "cache")))
    try:
        calls = []

        @cached_workload("toy")
        def build_toy(rows=4, seed=0):
            calls.append((rows, seed))
            return np.full(rows, seed)

        first = build_toy(4, seed=3)
        # Same bound arguments (defaults applied) -> same key, no rebuild.
        second = build_toy(rows=4, seed=3)
        assert np.array_equal(first, second)
        assert calls == [(4, 3)]
        build_toy(5, seed=3)
        assert len(calls) == 2
        # The undecorated builder stays reachable and uncached.
        build_toy.build_uncached(4, seed=3)
        assert len(calls) == 3
    finally:
        set_default_cache(previous)


def test_generators_hit_cache_and_stay_deterministic():
    from repro.envs.mapgen import city_like, wean_hall_like
    from repro.envs.pointcloud import living_room

    stats = default_cache().stats
    for build in (
        lambda: wean_hall_like(rows=40, cols=50, seed=5),
        lambda: city_like(rows=48, cols=48, seed=5),
        lambda: living_room(n_points=500, seed=5),
    ):
        first = build()
        hits_before = stats.hits
        second = build()
        assert stats.hits > hits_before
        first_cells = getattr(first, "cells", first)
        second_cells = getattr(second, "cells", second)
        assert np.array_equal(first_cells, second_cells)


def test_cached_map_mutation_is_private():
    from repro.envs.mapgen import wean_hall_like

    grid = wean_hall_like(rows=40, cols=50, seed=6)
    original = grid.cells.copy()
    grid.cells[:] = True
    again = wean_hall_like(rows=40, cols=50, seed=6)
    assert np.array_equal(again.cells, original)
