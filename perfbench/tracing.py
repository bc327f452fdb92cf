"""Span tracing of the repro layers, applied from outside the program.

:func:`instrument` swaps each layer's public entry point, in the module or
class where the calling kernel looks it up, for a wrapper that records a
:class:`Span`.  Spans stay in memory; :func:`self_times` turns them into
per-layer self time and :meth:`Tracer.dump` writes them out at the end of
a run.  :class:`NullProfiler` is the no-op profiler used to price the
program's own :class:`~repro.harness.profiler.PhaseProfiler`.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.harness.profiler import PhaseProfiler


class Span:
    """One call into a layer: name, start/end clock, parent span, job id."""

    __slots__ = ("name", "start", "end", "parent", "job")

    def __init__(
        self,
        name: str,
        start: float,
        end: float = 0.0,
        parent: Optional[int] = None,
        job: Optional[int] = None,
    ) -> None:
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.job = job

    def as_dict(self) -> Dict[str, Any]:
        """JSON view of the span."""
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "job": self.job,
        }


#: Observer called with ``(args, kwargs, result)`` of a traced call; it
#: adds layer-specific work counts (rays cast, poses checked, ...).
Observer = Callable[["Tracer", tuple, dict, Any], None]


class Tracer:
    """In-memory span recorder with a stack of open spans."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self.job: Optional[int] = None
        self._open: List[int] = []

    def wrap(
        self, name: str, fn: Callable, observe: Optional[Observer] = None
    ) -> Callable:
        """``fn`` recording one span named ``name`` per call."""

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(self.spans)
            span = Span(
                name,
                self.clock(),
                parent=self._open[-1] if self._open else None,
                job=self.job,
            )
            self.spans.append(span)
            self._open.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = self.clock()
                self._open.pop()
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return traced

    def span_count(self, name: str) -> int:
        """Number of recorded spans called ``name``."""
        return sum(1 for span in self.spans if span.name == name)

    def dump(self, path: str) -> None:
        """Write every span and count as JSON."""
        with open(path, "w") as fh:
            json.dump(
                {
                    "spans": [span.as_dict() for span in self.spans],
                    "counts": dict(self.counts),
                },
                fh,
            )


def _covered(start: float, end: float, intervals: Sequence[Tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    covered = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo = max(lo, cursor)
        hi = min(hi, end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return covered


def self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Per-name total self time: duration minus time covered by children."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    totals: Dict[str, float] = defaultdict(float)
    for index, span in enumerate(spans):
        totals[span.name] += (span.end - span.start) - _covered(
            span.start, span.end, children.get(index, ())
        )
    return dict(totals)


# -- observers -------------------------------------------------------------


def _count_rays(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    # Lidar.expected_ranges_batch returns (poses, beams) ranges.
    tracer.counts["raycast.rays"] += int(result.size)


def _count_poses(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    # oriented_footprints_collide_batch returns one verdict per pose.
    tracer.counts["collision.poses"] += int(len(result))


def _count_2d_expansions(
    tracer: Tracer, args: tuple, kwargs: dict, result: Any
) -> None:
    tracer.counts["search2d.expansions"] += int(result[0].expansions)


def _targets() -> List[Tuple[Any, str, str, Optional[Observer]]]:
    """``(owner, attribute, span name, observer)`` for every traced entry."""
    import repro.perception.particle_filter as pfl
    import repro.perception.scene_recon as srec
    import repro.planning.pp2d as pp2d
    import repro.planning.pp3d as pp3d
    from repro.control.mpc import ModelPredictiveController
    from repro.harness.runner import Kernel, StepSession, registry
    from repro.sensors.lidar import Lidar

    targets: List[Tuple[Any, str, str, Optional[Observer]]] = [
        (Lidar, "expected_ranges_batch", "raycast", _count_rays),
        (pp2d, "oriented_footprints_collide_batch", "collision", _count_poses),
        (pp2d, "astar_grid_2d", "search", _count_2d_expansions),
        (pp3d, "astar_grid_3d", "search", None),
        (srec, "icp", "icp", None),
        (srec.SceneReconstruction, "integrate", "recon.integrate", None),
        (ModelPredictiveController, "solve", "mpc", None),
        (pfl, "wean_hall_like", "mapgen", None),
        (pp2d, "city_like", "mapgen", None),
        (pp3d, "campus_like_3d", "mapgen", None),
        (srec, "living_room", "mapgen", None),
        (srec, "scan_trajectory", "mapgen", None),
        (StepSession, "step", "runner.step", None),
    ]
    for name in registry.names():
        cls = registry.get(name)
        if "run_roi" in cls.__dict__:
            targets.append((cls, "run_roi", "runner.run_roi", None))
    targets.append((Kernel, "run_roi", "runner.run_roi", None))
    return targets


@contextlib.contextmanager
def instrument(tracer: Tracer) -> Iterator[Tracer]:
    """Route every traced entry point through ``tracer`` while open."""
    saved = []
    try:
        for owner, attr, name, observe in _targets():
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, observe))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


_NULL_PHASE = contextlib.nullcontext()


class NullProfiler(PhaseProfiler):
    """A profiler that records nothing: the kernels' no-instrumentation cost."""

    def phase(self, name: str):  # type: ignore[override]
        return _NULL_PHASE

    def begin(self, name: str) -> None:
        pass

    def end(self, name: str) -> None:
        pass

    def count(self, name: str, n: int = 1) -> None:
        pass
