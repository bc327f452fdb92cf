"""Process-per-task suite executor with crash and timeout isolation.

The paper runs RTRBench as a *suite* — 16 kernels, per-kernel sweeps, a
scale comparison — and suite-level orchestration is where wall clock is
won or lost.  :func:`map_tasks` runs each task in its own forked child
process and keeps at most ``jobs`` children running at once.  The same
path serves every ``jobs`` value, ``jobs=1`` included, so every run
keeps the same guarantees:

* a task that raises returns a structured :class:`TaskResult` failure
  carrying the child's traceback, not a dead suite;
* a task that hangs past its ``timeout`` gets its child terminated and
  is reported as a timeout failure while every other task completes;
* a child that dies without reporting (segfault, ``os._exit``,
  OOM-kill) surfaces as a failure row with its exit code.

Results always come back in input order, one row per task.  A fork
pays no interpreter start-up: the child inherits the parent's imports,
and its task item is inherited too, never pickled.  Only the result
crosses a pipe back, so it must pickle; one that does not becomes a
failure row.

Scheduling
----------
``priorities`` (one float per task, typically the task's duration from a
previous run) orders dispatch longest-first, which cuts the
straggler-dominated makespan of heterogeneous task lists.  Ordering is
a pure scheduling hint: result order, task payloads, and task seeds are
unaffected.  Without priorities, tasks dispatch in input order.

Determinism
-----------
Parallel execution must not change results.  Tasks here are
self-contained (each carries its full configuration, including its
seed), and :func:`derive_seed` derives per-task seeds by *content* (a
stable hash of the base seed plus the task's identity), never by slot,
child process, or submission timing — so ``jobs=4`` and ``jobs=1``
run bit-identical task payloads and produce bit-identical task outputs.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import time
import traceback
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import wait as _connection_wait
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
)

#: How long a terminated child is given before escalating to SIGKILL.
_JOIN_GRACE_S = 5.0


@dataclass
class TaskResult:
    """Outcome of one task dispatched through :func:`map_tasks`.

    ``value`` holds the callable's return value when ``ok``; otherwise
    ``error`` carries the child's formatted traceback (or a description
    of the crash/timeout).  ``duration`` is the parent-observed wall
    clock from dispatch (fork) to result; ``exec_s`` is the
    child-measured execution time of the callable alone, so
    ``duration - exec_s`` is the executor's per-task dispatch overhead;
    ``queue_wait_s`` is how long the task sat in the parent's ready
    queue before dispatch.  ``exitcode`` is the child's exit code
    (negative: the signal that ended it); ``worker_id`` is the slot
    (``0 .. jobs-1``) the child ran in.
    """

    index: int
    name: str
    ok: bool
    value: Any = None
    error: Optional[str] = None
    duration: float = 0.0
    timed_out: bool = False
    exitcode: Optional[int] = None
    exec_s: float = 0.0
    queue_wait_s: float = 0.0
    worker_id: Optional[int] = None


def derive_seed(base_seed: int, *parts: object) -> int:
    """Deterministic 63-bit seed from a base seed and task-identity parts.

    Content-keyed (SHA-256 of the base seed plus ``parts``), so the seed a
    task receives depends only on *which task it is*, never on slot
    assignment or completion order — the property that makes parallel and
    serial suite runs bit-identical.
    """
    payload = repr((int(base_seed),) + tuple(parts)).encode()
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def schedule_order(
    count: int, priorities: Optional[Sequence[float]] = None
) -> List[int]:
    """Dispatch order for ``count`` tasks: longest-first by priority.

    ``None`` keeps input order.  The sort is stable, so tasks without a
    known duration (priority 0.0) retain their relative input order and
    run after every task that has one.
    """
    if priorities is None:
        return list(range(count))
    if len(priorities) != count:
        raise ValueError(
            f"{len(priorities)} priorities for {count} tasks"
        )
    return sorted(range(count), key=lambda i: (-float(priorities[i]), i))


def _run_child(fn: Callable[[Any], Any], item: Any, conn: Any) -> None:
    """Child entry: run one task and send ``(ok, value, error, exec_s)``.

    A result that cannot pickle is reported as a failure row, so the
    parent never mistakes it for a crash.
    """
    t0 = time.perf_counter()
    try:
        payload = (True, fn(item), None)
    except BaseException:
        payload = (False, None, traceback.format_exc())
    exec_s = time.perf_counter() - t0
    try:
        conn.send(payload + (exec_s,))
    except Exception:
        conn.send(
            (False, None,
             "task result not sendable:\n" + traceback.format_exc(),
             exec_s)
        )
    conn.close()


def _default_start_method() -> str:
    """``fork`` where available (fast, nothing pickled on the way in)."""
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


@dataclass
class _Child:
    """Parent-side handle for one running task."""

    index: int
    slot: int
    process: Any
    started: float
    deadline: Optional[float]


def map_tasks(
    fn: Callable[[Any], Any],
    items: Sequence[Any],
    jobs: int = 1,
    timeout: Optional[float] = None,
    names: Optional[Sequence[str]] = None,
    priorities: Optional[Sequence[float]] = None,
    pool_stats: Optional[Dict[str, Any]] = None,
) -> List[TaskResult]:
    """Run ``fn`` over ``items``, one forked child process per item.

    Returns one :class:`TaskResult` per item, in input order, regardless
    of completion order, scheduling order, or failures.  ``jobs`` bounds
    concurrent children.  ``timeout`` is per task, measured from
    dispatch; an expired child is terminated and its task reported with
    ``timed_out=True``.  ``priorities`` orders dispatch longest-first
    (see :func:`schedule_order`).  ``pool_stats``, when given, is filled
    in place with executor counters: ``workers`` (slots used),
    ``crashes``, ``timeouts``.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    items = list(items)
    if names is None:
        names = [f"task{i}" for i in range(len(items))]
    names = [str(n) for n in names]
    if len(names) != len(items):
        raise ValueError(
            f"{len(names)} names for {len(items)} items"
        )
    pending = deque(schedule_order(len(items), priorities))
    slots = min(jobs, len(items))
    if pool_stats is None:
        pool_stats = {}
    pool_stats.update({"workers": slots, "crashes": 0, "timeouts": 0})

    ctx = multiprocessing.get_context(_default_start_method())
    results: List[Optional[TaskResult]] = [None] * len(items)
    running: Dict[Any, _Child] = {}
    free_slots = list(range(slots))
    t_ready = time.perf_counter()

    def launch(index: int) -> None:
        reader, writer = ctx.Pipe(duplex=False)
        now = time.perf_counter()
        process = ctx.Process(
            target=_run_child, args=(fn, items[index], writer), daemon=True
        )
        process.start()
        writer.close()
        running[reader] = _Child(
            index=index,
            slot=free_slots.pop(0),
            process=process,
            started=now,
            deadline=None if timeout is None else now + timeout,
        )

    def finish(reader: Any, kill: bool = False, **fields: Any) -> None:
        """Join the child, close its pipe end and record its row."""
        now = time.perf_counter()
        child = running.pop(reader)
        if kill and child.process.is_alive():
            child.process.terminate()
            child.process.join(_JOIN_GRACE_S)
            if child.process.is_alive():  # pragma: no cover - stubborn
                child.process.kill()
        child.process.join()
        reader.close()
        free_slots.append(child.slot)
        free_slots.sort()
        results[child.index] = TaskResult(
            index=child.index,
            name=names[child.index],
            duration=now - child.started,
            exitcode=child.process.exitcode,
            queue_wait_s=child.started - t_ready,
            worker_id=child.slot,
            **fields,
        )

    def reap(reader: Any) -> None:
        """A child's pipe is ready: collect its result or its corpse."""
        try:
            ok, value, error, exec_s = reader.recv()
        except (EOFError, OSError):
            # Died without reporting (signal, os._exit, OOM-kill).
            process = running[reader].process
            process.join()
            pool_stats["crashes"] += 1
            finish(
                reader,
                ok=False,
                error=(
                    f"task process died without reporting "
                    f"(exit code {process.exitcode})"
                ),
            )
            return
        finish(reader, ok=ok, value=value, error=error, exec_s=exec_s)

    try:
        while pending or running:
            while pending and free_slots:
                launch(pending.popleft())
            deadlines = [
                c.deadline for c in running.values() if c.deadline is not None
            ]
            wait_for = (
                max(0.0, min(deadlines) - time.perf_counter())
                if deadlines
                else None
            )
            for reader in _connection_wait(list(running), timeout=wait_for):
                reap(reader)
            now = time.perf_counter()
            for reader, child in list(running.items()):
                if child.deadline is not None and now >= child.deadline:
                    pool_stats["timeouts"] += 1
                    finish(
                        reader,
                        kill=True,
                        ok=False,
                        error=(
                            f"task exceeded timeout of {timeout}s and "
                            "was terminated"
                        ),
                        timed_out=True,
                    )
    finally:
        # Only reached with children still running when the parent
        # itself was interrupted: never leave one behind.
        for reader in list(running):
            finish(reader, kill=True, ok=False, error="interrupted")

    return results  # type: ignore[return-value]
