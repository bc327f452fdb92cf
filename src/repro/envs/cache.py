"""Content-keyed in-process memo for procedural workload setup.

Characterization, the perf bench, and the Fig. 21 sweep build the same
procedural workloads — Wean-Hall-style maps, city grids, campus volumes,
living-room point clouds — and the generators are pure functions of
their parameters.  This module memoizes those artifacts by *content
key*: a SHA-256 of the generating category and its full parameter set.
Two calls with the same parameters in one process share one build;
changing any parameter changes the key — there is no time-based expiry
to get wrong, and nothing can go stale within a process.

The memo is an LRU of ``max_memory_items`` entries.  Hits are served as
deep copies, so callers may mutate their workload freely without
poisoning the cache.  Nothing is written to disk: every generator builds
in a few milliseconds, outside any timed region.  Set ``RTRBENCH_CACHE=0``
to disable the memo.

``cache_dir`` (``.rtrbench_cache/``, override with ``RTRBENCH_CACHE_DIR``)
is the directory :mod:`repro.native` compiles the C cores into;
:meth:`WorkloadCache.disk_stats` and :meth:`WorkloadCache.clear` count
and delete those libraries.
"""

from __future__ import annotations

import copy
import functools
import hashlib
import inspect
import json
import os
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional

DEFAULT_CACHE_DIR = ".rtrbench_cache"


def _jsonable(value: Any) -> Any:
    """Fallback encoder: represent unknown types stably by repr."""
    return repr(value)


def content_key(category: str, params: Mapping[str, Any]) -> str:
    """Stable hex digest of a workload's generating configuration."""
    payload = json.dumps(
        {"category": category, "params": dict(params)},
        sort_keys=True,
        default=_jsonable,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


@dataclass
class CacheStats:
    """Hit/miss accounting, including time spent building vs serving."""

    memory_hits: int = 0
    misses: int = 0
    build_time_s: float = 0.0
    hit_time_s: float = 0.0
    per_category: Dict[str, int] = field(default_factory=dict)

    @property
    def hits(self) -> int:
        """Total hits (the memo is the only layer)."""
        return self.memory_hits

    def as_dict(self) -> Dict[str, Any]:
        """Plain-dict view for JSON reports."""
        return {
            "memory_hits": self.memory_hits,
            "misses": self.misses,
            "build_time_s": self.build_time_s,
            "hit_time_s": self.hit_time_s,
            "per_category": dict(self.per_category),
        }


class WorkloadCache:
    """In-process LRU memo of content-keyed workload artifacts."""

    def __init__(
        self,
        cache_dir: Optional[str] = None,
        max_memory_items: int = 32,
        enabled: bool = True,
    ) -> None:
        self.cache_dir = cache_dir or DEFAULT_CACHE_DIR
        self.max_memory_items = max_memory_items
        self.enabled = enabled
        self.stats = CacheStats()
        self._memory: "OrderedDict[str, Any]" = OrderedDict()
        self._lock = threading.Lock()

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
        t_build = time.perf_counter()
        value = build()
        built_s = time.perf_counter() - t_build
        with self._lock:
            self._memory[key] = value
            self._memory.move_to_end(key)
            while len(self._memory) > self.max_memory_items:
                self._memory.popitem(last=False)
            self.stats.misses += 1
            self.stats.build_time_s += built_s
            self._count(category)
        return copy.deepcopy(value)

    def _count(self, category: str) -> None:
        self.stats.per_category[category] = (
            self.stats.per_category.get(category, 0) + 1
        )

    def _core_files(self) -> List[str]:
        """Paths of the compiled ``.so`` cores in ``cache_dir``."""
        if not os.path.isdir(self.cache_dir):
            return []
        return [
            os.path.join(self.cache_dir, name)
            for name in os.listdir(self.cache_dir)
            if name.endswith(".so")
        ]

    def disk_stats(self) -> Dict[str, Any]:
        """Count and byte usage of the compiled cores in ``cache_dir``.

        Powers ``rtrbench cache stats`` and ``clear``'s report.
        """
        total_bytes = 0
        paths = self._core_files()
        for path in paths:
            try:
                total_bytes += os.path.getsize(path)
            except OSError:  # pragma: no cover - concurrent delete
                pass
        return {
            "cache_dir": self.cache_dir,
            "enabled": self.enabled,
            "entries": len(paths),
            "bytes": total_bytes,
        }

    def clear(self) -> None:
        """Drop the memo and delete the compiled cores in ``cache_dir``.

        The cores are ``_astar-*.so`` and ``_raycast-*.so`` (see
        :mod:`repro.native`); the next ``array``-tier search or
        ``vectorized`` pfl cast rebuilds them.
        """
        with self._lock:
            self._memory.clear()
        for path in self._core_files():
            try:
                os.unlink(path)
            except OSError:  # pragma: no cover - races are fine
                pass


# -- process-wide default cache ------------------------------------------------

_default_cache: Optional[WorkloadCache] = None
_default_lock = threading.Lock()


def default_cache() -> WorkloadCache:
    """The process-wide cache used by the workload generators.

    Configured from the environment on first use: ``RTRBENCH_CACHE=0``
    disables the memo, ``RTRBENCH_CACHE_DIR`` relocates the core dir.
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
