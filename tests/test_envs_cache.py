"""Tests for the content-keyed workload cache."""

from __future__ import annotations

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


# -- layering ------------------------------------------------------------------


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


def test_disk_layer_survives_new_instance(tmp_path):
    cache_dir = str(tmp_path / "cache")
    calls = []

    def build():
        calls.append(1)
        return {"grid": np.ones((3, 3))}

    WorkloadCache(cache_dir=cache_dir).get_or_build("m", {"s": 1}, build)
    fresh = WorkloadCache(cache_dir=cache_dir)
    value = fresh.get_or_build("m", {"s": 1}, build)
    assert len(calls) == 1
    assert np.array_equal(value["grid"], np.ones((3, 3)))
    assert fresh.stats.disk_hits == 1


def test_lru_evicts_but_disk_still_serves(tmp_path):
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
    assert calls == []  # served from disk, not rebuilt
    assert cache.stats.disk_hits == 1


def test_mutating_a_hit_does_not_poison_the_cache(cache):
    cache.get_or_build("m", {}, lambda: np.zeros(3))
    hit = cache.get_or_build("m", {}, lambda: np.zeros(3))
    assert cache.stats.memory_hits == 1
    hit[:] = 99.0
    clean = cache.get_or_build("m", {}, lambda: np.zeros(3))
    assert np.array_equal(clean, np.zeros(3))
    # A disk hit served to a fresh instance (as a forked suite worker
    # reads it) is just as private: mutating it changes neither that
    # instance's memory copy nor the stored entry.
    fresh = WorkloadCache(cache_dir=cache.cache_dir)
    disk_hit = fresh.get_or_build("m", {}, lambda: pytest.fail("rebuilt"))
    assert fresh.stats.disk_hits == 1
    disk_hit[:] = 99.0
    again = fresh.get_or_build("m", {}, lambda: pytest.fail("rebuilt"))
    assert fresh.stats.memory_hits == 1
    assert np.array_equal(again, np.zeros(3))
    other = WorkloadCache(cache_dir=cache.cache_dir)
    stored = other.get_or_build("m", {}, lambda: pytest.fail("rebuilt"))
    assert np.array_equal(stored, np.zeros(3))


def test_corrupt_disk_entry_is_rebuilt(tmp_path):
    cache_dir = tmp_path / "cache"
    cache = WorkloadCache(cache_dir=str(cache_dir))
    cache.get_or_build("m", {"k": 1}, lambda: "value")
    for entry in cache_dir.glob("*.pkl"):
        entry.write_bytes(b"not a pickle")
    fresh = WorkloadCache(cache_dir=str(cache_dir))
    assert fresh.get_or_build("m", {"k": 1}, lambda: "rebuilt") == "rebuilt"
    assert fresh.stats.misses == 1


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
    cache.get_or_build("m", {}, lambda: "v")
    cache.clear()
    calls = []
    cache.get_or_build("m", {}, lambda: calls.append(1) or "v")
    assert calls == [1]


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
