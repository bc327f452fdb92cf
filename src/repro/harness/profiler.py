"""Deterministic phase profiler.

The paper characterizes each kernel by where its execution time goes
("ray-casting takes 67-78% of pfl", "collision detection takes >65% of
pp2d", ...).  Kernels in this suite wrap their algorithmic phases in
``profiler.phase("name")`` sections; the profiler accumulates *exclusive*
wall-clock time per phase (a child phase pauses its parent's clock) plus
arbitrary operation counters (ray steps, cells checked, heap pushes, ...),
so both a time breakdown and an architecture-independent work breakdown are
available for every run.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from contextlib import contextmanager


@dataclass
class PhaseStats:
    """Accumulated statistics for one named phase.

    Besides the exclusive/inclusive *totals*, each phase tracks the
    per-call inclusive duration extremes (``min_time`` / ``max_time``)
    and the most recent call (``last_time``), so jitter-style reports —
    "how variable is one iteration of this phase?" — come from the same
    stats path as the characterization totals.  ``min_time`` is ``inf``
    until the phase has run at least once.
    """

    name: str
    exclusive_time: float = 0.0
    inclusive_time: float = 0.0
    calls: int = 0
    min_time: float = math.inf
    max_time: float = 0.0
    last_time: float = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PhaseStats({self.name!r}, excl={self.exclusive_time:.6f}s, "
            f"incl={self.inclusive_time:.6f}s, calls={self.calls})"
        )


@dataclass
class _Frame:
    name: str
    entered: float
    child_time: float = 0.0


class PhaseProfiler:
    """Accumulates exclusive per-phase time and operation counters.

    Phases may nest; time spent in a child is subtracted from the parent's
    exclusive time, so ``fractions()`` partitions total measured time.

    >>> prof = PhaseProfiler()
    >>> with prof.phase("outer"):
    ...     with prof.phase("inner"):
    ...         pass
    >>> sorted(prof.stats)
    ['inner', 'outer']
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self._clock = clock
        self.stats: Dict[str, PhaseStats] = {}
        self.counters: Dict[str, int] = {}
        self._stack: List[_Frame] = []

    # -- timing ----------------------------------------------------------

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Measure the enclosed block under phase ``name``."""
        self.begin(name)
        try:
            yield
        finally:
            self.end(name)

    def begin(self, name: str) -> None:
        """Imperative phase entry (for code where ``with`` is awkward)."""
        self._stack.append(_Frame(name=name, entered=self._clock()))

    def end(self, name: str) -> None:
        """Imperative phase exit; must match the innermost open phase."""
        now = self._clock()
        if not self._stack:
            raise RuntimeError(f"phase end({name!r}) with no open phase")
        frame = self._stack.pop()
        if frame.name != name:
            raise RuntimeError(
                f"mismatched phases: open {frame.name!r} closed by {name!r}"
            )
        inclusive = now - frame.entered
        exclusive = inclusive - frame.child_time
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = PhaseStats(name)
        st.exclusive_time += exclusive
        st.inclusive_time += inclusive
        st.calls += 1
        st.min_time = min(st.min_time, inclusive)
        st.max_time = max(st.max_time, inclusive)
        st.last_time = inclusive
        if self._stack:
            self._stack[-1].child_time += inclusive

    # -- counters ----------------------------------------------------------

    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to operation counter ``name``."""
        self.counters[name] = self.counters.get(name, 0) + n

    # -- reporting ---------------------------------------------------------

    def total_time(self) -> float:
        """Sum of exclusive phase times (== total instrumented time)."""
        return sum(s.exclusive_time for s in self.stats.values())

    def fractions(self) -> Dict[str, float]:
        """Each phase's share of total instrumented time (sums to 1)."""
        total = self.total_time()
        if total <= 0.0:
            return {name: 0.0 for name in self.stats}
        return {
            name: st.exclusive_time / total for name, st in self.stats.items()
        }

    def fraction(self, name: str) -> float:
        """Share of total instrumented time spent in phase ``name``.

        A phase that never ran — including on a profiler with no phases at
        all — contributes 0.0 rather than raising, so report code can ask
        about phases a backend or configuration happened to skip.
        """
        st = self.stats.get(name)
        if st is None:
            return 0.0
        total = self.total_time()
        if total <= 0.0:
            return 0.0
        return st.exclusive_time / total

    def dominant_phase(self) -> Optional[str]:
        """Name of the phase with the largest exclusive time, if any."""
        if not self.stats:
            return None
        return max(self.stats.values(), key=lambda s: s.exclusive_time).name

    def reset(self) -> None:
        """Clear all accumulated statistics (open phases must be closed)."""
        if self._stack:
            raise RuntimeError("cannot reset profiler with open phases")
        self.stats.clear()
        self.counters.clear()

    def report(self) -> str:
        """Human-readable per-phase breakdown."""
        lines = ["phase                     excl (s)    share   calls"]
        fracs = self.fractions()
        for name, st in sorted(
            self.stats.items(), key=lambda kv: -kv[1].exclusive_time
        ):
            lines.append(
                f"{name:<24} {st.exclusive_time:>9.4f}  {fracs[name]:>6.1%}"
                f"  {st.calls:>6d}"
            )
        if self.counters:
            lines.append("counters:")
            for name, n in sorted(self.counters.items()):
                lines.append(f"  {name:<24} {n}")
        return "\n".join(lines)
