"""Content-keyed workload cache for expensive environment setup.

Characterization, the perf bench, and the Fig. 21 sweep all rebuild the
same procedural workloads — Wean-Hall-style maps, city grids, campus
volumes, living-room point clouds — from scratch on every run, even
though the generators are pure functions of their parameters.  This
module memoizes those artifacts by *content key*: a SHA-256 of the
generating category, its full parameter set, and a schema version.  Two
calls with the same parameters share one build; changing any parameter
(or bumping a generator's schema version) changes the key and invalidates
the entry — there is no time-based expiry to get wrong.

Three layers back the key:

* an in-process LRU (``max_memory_items`` entries) serving repeat calls
  within one process at deep-copy cost;
* an optional **shared-memory plane** (:mod:`repro.harness.shm`): the
  suite parent publishes large artifacts once into
  ``multiprocessing.shared_memory`` segments keyed by these same
  content keys, and pool workers attach zero-copy instead of re-reading
  the disk store (install with :func:`install_shared_plane`; a
  per-worker LRU keeps segments attached across tasks);
* an on-disk pickle store under ``.rtrbench_cache/`` (override with
  ``RTRBENCH_CACHE_DIR``) shared between processes and across runs, so
  parallel suite workers and repeated invocations all reuse one build.

Cached values are returned as deep copies, so callers may mutate their
workload freely without poisoning the cache.  Disk writes are atomic
(temp file + ``os.replace``) and unreadable/corrupt entries are treated
as misses and rebuilt, so concurrent workers can share a directory
safely.  Set ``RTRBENCH_CACHE=0`` to disable caching entirely.
"""

from __future__ import annotations

import copy
import functools
import hashlib
import inspect
import json
import os
import pickle
import tempfile
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Optional

#: Bump when a generator's output changes for identical parameters, so
#: stale on-disk artifacts from older code can never be served.
#: v2: trajectory generation runs backward Dijkstra on the bucketed
#: batch engine by default, which may break distance ties differently
#: from the scalar heap sweep.
SCHEMA_VERSION = 2

DEFAULT_CACHE_DIR = ".rtrbench_cache"


def _jsonable(value: Any) -> Any:
    """Fallback encoder: represent unknown types stably by repr."""
    return repr(value)


def content_key(category: str, params: Mapping[str, Any]) -> str:
    """Stable hex digest of a workload's generating configuration."""
    payload = json.dumps(
        {
            "category": category,
            "schema": SCHEMA_VERSION,
            "params": dict(params),
        },
        sort_keys=True,
        default=_jsonable,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


@dataclass
class CacheStats:
    """Hit/miss accounting, including time spent building vs serving."""

    memory_hits: int = 0
    shm_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    build_time_s: float = 0.0
    hit_time_s: float = 0.0
    per_category: Dict[str, int] = field(default_factory=dict)

    @property
    def hits(self) -> int:
        """Total hits across all three layers."""
        return self.memory_hits + self.shm_hits + self.disk_hits

    def as_dict(self) -> Dict[str, Any]:
        """Plain-dict view for JSON reports."""
        return {
            "memory_hits": self.memory_hits,
            "shm_hits": self.shm_hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "build_time_s": self.build_time_s,
            "hit_time_s": self.hit_time_s,
            "per_category": dict(self.per_category),
        }


# -- shared-memory plane (installed by the suite before its pool forks) --------

#: ``{content_key[:24] -> shared-memory segment name}``; empty = no plane.
_shared_plane: Dict[str, str] = {}

#: Per-process LRU of attached segments (lazy; workers inherit ``None``
#: across fork and build their own on first attach).
_segment_cache: Optional[Any] = None


def install_shared_plane(mapping: Optional[Mapping[str, str]]) -> None:
    """Install (or, with ``None``/empty, remove) the shared-memory plane.

    The suite parent publishes its cached workloads via
    :class:`repro.harness.shm.SharedWorkloadPlane` and installs the
    resulting ``{content key -> segment name}`` table *before* forking
    the worker pool, so every worker inherits it; spawned workers get it
    through the pool's initializer instead.
    """
    global _segment_cache
    _shared_plane.clear()
    if mapping:
        _shared_plane.update(mapping)
    elif _segment_cache is not None:
        _segment_cache.close()
        _segment_cache = None


def shared_plane_mapping() -> Dict[str, str]:
    """The installed plane table (empty when no plane is active)."""
    return dict(_shared_plane)


def _attach_from_plane(plane_key: str) -> Any:
    """Attached (shm-backed, shared) value for a plane key, or ``None``."""
    name = _shared_plane.get(plane_key)
    if name is None:
        return None
    global _segment_cache
    if _segment_cache is None:
        from repro.harness.shm import AttachedSegmentCache

        _segment_cache = AttachedSegmentCache()
    return _segment_cache.get(name)


class WorkloadCache:
    """Three-layer (memory LRU + shared-memory plane + disk pickle)
    content-keyed artifact cache."""

    def __init__(
        self,
        cache_dir: Optional[str] = None,
        max_memory_items: int = 32,
        enabled: bool = True,
        persist: bool = True,
    ) -> None:
        self.cache_dir = cache_dir or DEFAULT_CACHE_DIR
        self.max_memory_items = max_memory_items
        self.enabled = enabled
        self.persist = persist
        self.stats = CacheStats()
        self._memory: "OrderedDict[str, Any]" = OrderedDict()
        self._lock = threading.Lock()

    # -- storage layers ----------------------------------------------------

    def _entry_path(self, category: str, key: str) -> str:
        return os.path.join(self.cache_dir, f"{category}-{key[:24]}.pkl")

    def _memory_put(self, key: str, value: Any) -> None:
        self._memory[key] = value
        self._memory.move_to_end(key)
        while len(self._memory) > self.max_memory_items:
            self._memory.popitem(last=False)

    def _disk_get(self, path: str) -> Any:
        try:
            with open(path, "rb") as fh:
                return pickle.load(fh)
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, ValueError):
            # Missing, truncated, or written by incompatible code: a miss.
            return None

    def _disk_put(self, path: str, value: Any) -> None:
        try:
            os.makedirs(self.cache_dir, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=self.cache_dir, suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "wb") as fh:
                    pickle.dump(value, fh, protocol=pickle.HIGHEST_PROTOCOL)
                os.replace(tmp, path)
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
        except (OSError, pickle.PicklingError):
            # Persistence is an optimization; never fail the build over it.
            pass

    # -- public API --------------------------------------------------------

    def get_or_build(
        self,
        category: str,
        params: Mapping[str, Any],
        build: Callable[[], Any],
    ) -> Any:
        """Return the artifact for ``(category, params)``, building at most once.

        Hits are served as deep copies so the cached original stays
        pristine even if the caller mutates its workload.
        """
        if not self.enabled:
            return build()
        key = content_key(category, params)
        t0 = time.perf_counter()
        with self._lock:
            if key in self._memory:
                self._memory.move_to_end(key)
                value = copy.deepcopy(self._memory[key])
                self.stats.memory_hits += 1
                self.stats.hit_time_s += time.perf_counter() - t0
                self._count(category)
                return value
        if _shared_plane:
            value = _attach_from_plane(key[:24])
            if value is not None:
                # The attached original stays shm-backed and shared; the
                # caller gets the usual mutation-safe deep copy.
                served = copy.deepcopy(value)
                with self._lock:
                    self.stats.shm_hits += 1
                    self.stats.hit_time_s += time.perf_counter() - t0
                    self._count(category)
                return served
        if self.persist:
            value = self._disk_get(self._entry_path(category, key))
            if value is not None:
                with self._lock:
                    self._memory_put(key, value)
                    self.stats.disk_hits += 1
                    self.stats.hit_time_s += time.perf_counter() - t0
                    self._count(category)
                return copy.deepcopy(value)
        t_build = time.perf_counter()
        value = build()
        built_s = time.perf_counter() - t_build
        with self._lock:
            self._memory_put(key, value)
            self.stats.misses += 1
            self.stats.build_time_s += built_s
            self._count(category)
        if self.persist:
            self._disk_put(self._entry_path(category, key), value)
        return copy.deepcopy(value)

    def _count(self, category: str) -> None:
        self.stats.per_category[category] = (
            self.stats.per_category.get(category, 0) + 1
        )

    def publish_entries(self, plane: Any) -> int:
        """Publish every cached artifact into a shared-memory plane.

        The in-memory layer publishes directly; disk entries not already
        covered are loaded once and published under the key embedded in
        their filename.  Returns the number of segments published.
        Publication is opportunistic — a value the plane declines (size
        budget, unpicklable buffers, no shared memory on this platform)
        simply stays disk-served.
        """
        published = 0
        with self._lock:
            memory_entries = [
                (key[:24], value) for key, value in self._memory.items()
            ]
        for plane_key, value in memory_entries:
            if plane.publish(plane_key, value):
                published += 1
        if self.persist and os.path.isdir(self.cache_dir):
            for name in sorted(os.listdir(self.cache_dir)):
                if not name.endswith(".pkl") or "-" not in name:
                    continue
                plane_key = name[:-4].rsplit("-", 1)[1]
                if plane_key in plane.mapping():
                    continue
                value = self._disk_get(os.path.join(self.cache_dir, name))
                if value is None:
                    continue
                if plane.publish(plane_key, value):
                    published += 1
        return published

    def disk_stats(self) -> Dict[str, Any]:
        """Entry count and byte usage of the on-disk layer.

        Powers ``rtrbench cache stats``; counts only ``.pkl`` entries
        (leftover ``.tmp`` files from interrupted writes are ignored —
        ``clear`` removes them too).
        """
        entries = 0
        total_bytes = 0
        if self.persist and os.path.isdir(self.cache_dir):
            for name in os.listdir(self.cache_dir):
                if not name.endswith(".pkl"):
                    continue
                entries += 1
                try:
                    total_bytes += os.path.getsize(
                        os.path.join(self.cache_dir, name)
                    )
                except OSError:  # pragma: no cover - concurrent delete
                    pass
        return {
            "cache_dir": self.cache_dir,
            "enabled": self.enabled,
            "entries": entries,
            "bytes": total_bytes,
        }

    def clear(self, memory_only: bool = False) -> None:
        """Drop the in-memory layer (and the disk layer unless asked not to).

        The disk layer includes the compiled C cores (``_astar-*.so``
        and ``_raycast-*.so``, see :mod:`repro.native`), which the next
        ``array``-tier search or ``vectorized`` pfl cast rebuilds.
        """
        with self._lock:
            self._memory.clear()
        if memory_only or not self.persist:
            return
        if os.path.isdir(self.cache_dir):
            for name in os.listdir(self.cache_dir):
                if name.endswith((".pkl", ".tmp", ".so")):
                    try:
                        os.unlink(os.path.join(self.cache_dir, name))
                    except OSError:  # pragma: no cover - races are fine
                        pass


# -- process-wide default cache ------------------------------------------------

_default_cache: Optional[WorkloadCache] = None
_default_lock = threading.Lock()


def default_cache() -> WorkloadCache:
    """The process-wide cache used by the workload generators.

    Configured from the environment on first use: ``RTRBENCH_CACHE=0``
    disables it, ``RTRBENCH_CACHE_DIR`` relocates the disk layer.
    """
    global _default_cache
    with _default_lock:
        if _default_cache is None:
            enabled = os.environ.get("RTRBENCH_CACHE", "1") != "0"
            cache_dir = os.environ.get("RTRBENCH_CACHE_DIR", DEFAULT_CACHE_DIR)
            _default_cache = WorkloadCache(
                cache_dir=cache_dir, enabled=enabled
            )
        return _default_cache


def set_default_cache(cache: Optional[WorkloadCache]) -> None:
    """Replace the process-wide cache (``None`` re-reads the environment)."""
    global _default_cache
    with _default_lock:
        _default_cache = cache


def cached_workload(category: str) -> Callable:
    """Decorator: memoize a pure workload generator through the default cache.

    The content key is the function's *complete* bound argument mapping
    (defaults applied), so every parameter participates in invalidation.
    The undecorated builder stays reachable as ``fn.build_uncached`` for
    cold-build timing and cache-bypass use.
    """

    def decorate(fn: Callable) -> Callable:
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            return default_cache().get_or_build(
                category, dict(bound.arguments), lambda: fn(*args, **kwargs)
            )

        wrapper.build_uncached = fn  # type: ignore[attr-defined]
        return wrapper

    return decorate
