"""Antagonist processes: measured interference for degradation studies.

Real-time numbers taken on an idle machine flatter the system; the
interesting question is how the latency distribution moves when the
kernel shares the machine with load.  This module launches *antagonist*
processes — deliberately cache- and scheduler-hostile busy loops — next
to the measured task, reusing the process-isolation pattern of
:mod:`repro.harness.parallel` (forked daemon children, terminate + join
teardown, kill fallback) so an antagonist can never outlive its run.

Kinds:

* ``"cpu"`` — pure arithmetic spin, competing for cycles and scheduler
  slots;
* ``"membw"`` — repeatedly copies a buffer much larger than the last-
  level cache, competing for memory bandwidth and evicting the measured
  task's working set;
* ``"mixed"`` — alternates the two kinds across the pool.

Antagonists synchronize on a shared :class:`multiprocessing.Event`, so
``stop()`` is prompt; they are daemons, so even a crashed parent leaks
nothing past its own exit.
"""

from __future__ import annotations

import multiprocessing
from typing import Any, List

from repro.harness.parallel import _default_start_method

#: Valid antagonist kinds, in documentation order.
ANTAGONIST_KINDS = ("cpu", "membw", "mixed")

#: Buffer size for the memory-bandwidth antagonist (bytes).  64 MiB is
#: far beyond any L3 on the machines this suite targets, so the copy
#: loop streams from DRAM.
MEMBW_BUFFER_BYTES = 64 * 1024 * 1024


def _cpu_spin(stop: Any) -> None:
    """Arithmetic busy loop until ``stop`` is set."""
    x = 1.0000001
    while not stop.is_set():
        for _ in range(50_000):
            x = x * 1.0000001
            if x > 2.0:
                x -= 1.0


def _membw_stream(stop: Any, buffer_bytes: int = MEMBW_BUFFER_BYTES) -> None:
    """Stream a cache-busting buffer back and forth until ``stop`` is set."""
    src = bytearray(buffer_bytes)
    dst = bytearray(buffer_bytes)
    while not stop.is_set():
        dst[:] = src
        src[:] = dst


class AntagonistPool:
    """A stoppable pool of ``count`` antagonist processes.

    Usable as a context manager::

        with AntagonistPool(4, kind="membw"):
            ...  # measured section runs under load
    """

    def __init__(self, count: int, kind: str = "cpu") -> None:
        if count < 0:
            raise ValueError("count must be >= 0")
        if kind not in ANTAGONIST_KINDS:
            raise ValueError(
                f"unknown antagonist kind {kind!r}; "
                f"expected one of {ANTAGONIST_KINDS}"
            )
        self.count = count
        self.kind = kind
        self._ctx = multiprocessing.get_context(_default_start_method())
        self._stop = self._ctx.Event()
        self._processes: List[Any] = []

    def _target(self, index: int) -> Any:
        if self.kind == "cpu":
            return _cpu_spin
        if self.kind == "membw":
            return _membw_stream
        return _cpu_spin if index % 2 == 0 else _membw_stream

    def start(self) -> "AntagonistPool":
        """Launch the antagonists (idempotent; no-op for ``count == 0``)."""
        if self._processes:
            return self
        self._stop.clear()
        for index in range(self.count):
            process = self._ctx.Process(
                target=self._target(index),
                args=(self._stop,),
                daemon=True,
                name=f"rt-antagonist-{self.kind}-{index}",
            )
            process.start()
            self._processes.append(process)
        return self

    def stop(self, join_timeout: float = 5.0) -> None:
        """Signal, join, and (if necessary) terminate every antagonist."""
        self._stop.set()
        for process in self._processes:
            process.join(join_timeout)
            if process.is_alive():  # pragma: no cover - stubborn worker
                process.terminate()
                process.join(join_timeout)
                if process.is_alive():
                    process.kill()
                    process.join()
        self._processes.clear()

    def alive_count(self) -> int:
        """How many antagonist processes are currently running."""
        return sum(1 for p in self._processes if p.is_alive())

    def __enter__(self) -> "AntagonistPool":
        return self.start()

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self.stop()
