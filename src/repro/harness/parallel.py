"""Persistent worker-pool suite executor with crash and timeout isolation.

The paper runs RTRBench as a *suite* — 16 kernels, per-kernel sweeps, a
scale comparison — and suite-level orchestration is where wall clock is
won or lost.  :func:`map_tasks` dispatches independent tasks over a
**persistent pool** of worker processes: workers are forked once per
call and *reused* across tasks, so interpreter start-up, imports, and
numpy initialization are paid ``jobs`` times per run instead of once per
task.  The guarantees of the earlier process-per-task executor are kept:

* a task that raises returns a structured :class:`TaskResult` failure
  carrying the worker's traceback, not a dead suite;
* a task that hangs past its ``timeout`` gets its worker terminated and
  is reported as a timeout failure while every other task completes;
* a worker that dies without reporting (segfault, ``os._exit``,
  OOM-kill) surfaces as a failure row with the worker's exit code, and a
  **replacement worker is spawned** so the remaining tasks still run.

Results always come back in input order, one row per task.

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
stable hash of the base seed plus the task's identity), never by worker
id, pool assignment, or submission timing — so ``jobs=4`` and ``jobs=1``
run bit-identical task payloads and produce bit-identical task outputs.

With ``jobs <= 1`` tasks run inline in the calling process (no workers
are spawned); exceptions are still captured as failure rows, but
timeouts cannot preempt inline execution and are not enforced — a
one-time :class:`RuntimeWarning` is emitted when a timeout is configured
inline so a sweep cannot silently lose its hang protection.

Unlike the earlier one-process-per-task executor, task *items* cross the
pipe to their worker (the callable itself is still inherited by fork),
so items must be picklable — the suite's task dicts are.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import time
import traceback
import warnings
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

#: How long a shutdown/terminate is given before escalating to SIGKILL.
_JOIN_GRACE_S = 5.0


@dataclass
class TaskResult:
    """Outcome of one task dispatched through :func:`map_tasks`.

    ``value`` holds the callable's return value when ``ok``; otherwise
    ``error`` carries the worker's formatted traceback (or a description
    of the crash/timeout).  ``duration`` is the parent-observed wall
    clock from dispatch to result; ``exec_s`` is the worker-measured
    execution time of the callable alone, so ``duration - exec_s`` is
    the executor's per-task dispatch overhead; ``queue_wait_s`` is how
    long the task sat in the parent's ready queue before dispatch.
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
    task receives depends only on *which task it is*, never on worker
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


_warned_inline_timeout = False


def _warn_inline_timeout() -> None:
    """One-time warning: inline execution cannot preempt a hung task."""
    global _warned_inline_timeout
    if _warned_inline_timeout:
        return
    _warned_inline_timeout = True
    warnings.warn(
        "map_tasks(jobs<=1) runs tasks inline and cannot enforce the "
        "configured timeout; use jobs >= 2 for hang protection",
        RuntimeWarning,
        stacklevel=3,
    )


def _pool_worker(fn: Callable[[Any], Any], conn: Any) -> None:
    """Worker main loop: serve tasks off the pipe until told to stop.

    Protocol: parent sends ``(index, item)`` tuples (``None`` to shut
    down); the worker replies ``(index, ok, value, error, exec_s)``.  A
    result that cannot pickle is reported as a failure row instead of
    killing the worker, so one bad task never costs a respawn.
    """
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):  # parent went away
            break
        if message is None:
            break
        index, item = message
        t0 = time.perf_counter()
        try:
            payload = (index, True, fn(item), None)
        except BaseException:
            payload = (index, False, None, traceback.format_exc())
        exec_s = time.perf_counter() - t0
        try:
            conn.send(payload + (exec_s,))
        except Exception:
            # The value itself failed to pickle — report that instead of
            # dying silently (the parent would otherwise see a crash and
            # burn a respawn).
            try:
                conn.send(
                    (index, False, None,
                     "task result not sendable:\n" + traceback.format_exc(),
                     exec_s)
                )
            except Exception:  # pragma: no cover - pipe already gone
                break
    try:
        conn.close()
    except Exception:  # pragma: no cover
        pass


def _default_start_method() -> str:
    """``fork`` where available (fast, no pickling of the callable)."""
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


def _run_inline(
    fn: Callable[[Any], Any], item: Any, index: int, name: str
) -> TaskResult:
    """Serial fallback: run one task in-process, capturing exceptions."""
    t0 = time.perf_counter()
    try:
        value = fn(item)
    except Exception:
        duration = time.perf_counter() - t0
        return TaskResult(
            index=index,
            name=name,
            ok=False,
            error=traceback.format_exc(),
            duration=duration,
            exec_s=duration,
        )
    duration = time.perf_counter() - t0
    return TaskResult(
        index=index,
        name=name,
        ok=True,
        value=value,
        duration=duration,
        exec_s=duration,
    )


class _Worker:
    """Parent-side handle for one pool worker process."""

    __slots__ = ("process", "conn", "id", "current", "dispatched_at",
                 "deadline")

    def __init__(self, process: Any, conn: Any, worker_id: int) -> None:
        self.process = process
        self.conn = conn
        self.id = worker_id
        self.current: Optional[int] = None   # index of the task in flight
        self.dispatched_at: float = 0.0
        self.deadline: Optional[float] = None


class WorkerPool:
    """A fixed-size pool of persistent, respawnable worker processes.

    Workers are forked once and reused across tasks; a worker lost to a
    crash or a timeout kill is replaced so pool capacity never decays
    mid-run.  :meth:`shutdown` (also run by ``__exit__``) always joins
    every worker process and closes every parent pipe end, so repeated
    pool lifecycles — including timeout-heavy sweeps — cannot leak file
    descriptors or zombies.
    """

    def __init__(self, fn: Callable[[Any], Any], jobs: int) -> None:
        self.fn = fn
        self.jobs = max(2, jobs)
        self._ctx = multiprocessing.get_context(_default_start_method())
        self._workers: List[_Worker] = []
        self._next_id = 0
        self.respawns = 0
        self.crashes = 0
        self.timeouts = 0

    # -- lifecycle -------------------------------------------------------------

    def start(self, count: int) -> None:
        """Fork ``count`` workers (bounded by the pool's ``jobs``)."""
        for _ in range(min(count, self.jobs)):
            self._spawn()

    def _spawn(self) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_pool_worker,
            args=(self.fn, child_conn),
            daemon=True,
        )
        process.start()
        child_conn.close()
        worker = _Worker(process, parent_conn, self._next_id)
        self._next_id += 1
        self._workers.append(worker)
        return worker

    def _retire(self, worker: _Worker, kill: bool = False) -> None:
        """Remove a worker, always joining it and closing the pipe end."""
        if kill and worker.process.is_alive():
            worker.process.terminate()
            worker.process.join(_JOIN_GRACE_S)
            if worker.process.is_alive():  # pragma: no cover - stubborn
                worker.process.kill()
        worker.process.join()
        try:
            worker.conn.close()
        except Exception:  # pragma: no cover - close is best-effort
            pass
        self._workers.remove(worker)

    def shutdown(self) -> None:
        """Stop every worker: polite sentinel first, then escalate."""
        for worker in list(self._workers):
            try:
                worker.conn.send(None)
            except Exception:
                pass
        for worker in list(self._workers):
            worker.process.join(_JOIN_GRACE_S)
            self._retire(worker, kill=worker.process.is_alive())

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()

    # -- views -----------------------------------------------------------------

    @property
    def workers(self) -> List[_Worker]:
        """Live workers (mutated by spawn/retire)."""
        return self._workers

    def idle(self) -> List[_Worker]:
        """Workers with no task in flight."""
        return [w for w in self._workers if w.current is None]

    def busy(self) -> List[_Worker]:
        """Workers with a task in flight."""
        return [w for w in self._workers if w.current is not None]


def map_tasks(
    fn: Callable[[Any], Any],
    items: Sequence[Any],
    jobs: int = 1,
    timeout: Optional[float] = None,
    names: Optional[Sequence[str]] = None,
    priorities: Optional[Sequence[float]] = None,
    pool_stats: Optional[Dict[str, Any]] = None,
) -> List[TaskResult]:
    """Run ``fn`` over ``items`` on a persistent pool of worker processes.

    Returns one :class:`TaskResult` per item, in input order, regardless
    of completion order, scheduling order, or failures.  ``jobs`` bounds
    concurrent workers; ``jobs <= 1`` runs inline (see module docstring
    for the timeout caveat).  ``timeout`` is per task, measured from
    dispatch; an expired worker is terminated (and replaced while tasks
    remain) and its task reported with ``timed_out=True``.
    ``priorities`` orders dispatch longest-first (see
    :func:`schedule_order`).  ``pool_stats``, when given, is filled in
    place with executor counters: ``workers``, ``respawns``,
    ``crashes``, ``timeouts``.
    """
    items = list(items)
    if names is None:
        names = [f"task{i}" for i in range(len(items))]
    names = [str(n) for n in names]
    if len(names) != len(items):
        raise ValueError(
            f"{len(names)} names for {len(items)} items"
        )
    order = schedule_order(len(items), priorities)
    if pool_stats is None:
        pool_stats = {}
    pool_stats.update(
        {"workers": 0, "respawns": 0, "crashes": 0, "timeouts": 0}
    )

    if jobs <= 1:
        if timeout is not None:
            _warn_inline_timeout()
        pool_stats["workers"] = 1
        results_inline: List[Optional[TaskResult]] = [None] * len(items)
        for index in order:
            results_inline[index] = _run_inline(
                fn, items[index], index, names[index]
            )
        return results_inline  # type: ignore[return-value]

    results: List[Optional[TaskResult]] = [None] * len(items)
    pending = deque(order)
    pool = WorkerPool(fn, jobs)
    t_ready = time.perf_counter()

    def dispatch(worker: _Worker, index: int) -> None:
        now = time.perf_counter()
        worker.current = index
        worker.dispatched_at = now
        worker.deadline = None if timeout is None else now + timeout
        try:
            worker.conn.send((index, items[index]))
        except (BrokenPipeError, OSError):
            # The worker died while idle; the task was never delivered,
            # so it is safe to requeue on a replacement.
            worker.current = None
            pending.appendleft(index)
            pool.crashes += 1
            pool._retire(worker)
            pool._spawn()
            pool.respawns += 1
        except Exception:
            # The item itself failed to pickle: a task-level failure,
            # not a dead worker.
            worker.current = None
            results[index] = TaskResult(
                index=index,
                name=names[index],
                ok=False,
                error="task item not sendable:\n" + traceback.format_exc(),
                queue_wait_s=now - t_ready,
                worker_id=worker.id,
            )

    def reap(worker: _Worker) -> None:
        """A busy worker's pipe is ready: collect its result or corpse."""
        index = worker.current
        assert index is not None
        now = time.perf_counter()
        try:
            r_index, ok, value, error, exec_s = worker.conn.recv()
        except (EOFError, OSError):
            # Died without reporting (signal, os._exit, OOM-kill).
            worker.process.join()
            exitcode = worker.process.exitcode
            results[index] = TaskResult(
                index=index,
                name=names[index],
                ok=False,
                error=(
                    f"worker died without reporting "
                    f"(exit code {exitcode})"
                ),
                duration=now - worker.dispatched_at,
                exitcode=exitcode,
                queue_wait_s=worker.dispatched_at - t_ready,
                worker_id=worker.id,
            )
            pool.crashes += 1
            pool._retire(worker)
            if pending:
                pool._spawn()
                pool.respawns += 1
            return
        assert r_index == index, "worker answered out of protocol"
        results[index] = TaskResult(
            index=index,
            name=names[index],
            ok=ok,
            value=value,
            error=error,
            duration=now - worker.dispatched_at,
            exec_s=exec_s,
            queue_wait_s=worker.dispatched_at - t_ready,
            worker_id=worker.id,
        )
        worker.current = None
        worker.deadline = None

    def expire(worker: _Worker) -> None:
        """A busy worker blew its deadline: kill, report, replace."""
        index = worker.current
        assert index is not None
        now = time.perf_counter()
        pool._retire(worker, kill=True)
        results[index] = TaskResult(
            index=index,
            name=names[index],
            ok=False,
            error=f"task exceeded timeout of {timeout}s and was terminated",
            duration=now - worker.dispatched_at,
            timed_out=True,
            exitcode=worker.process.exitcode,
            queue_wait_s=worker.dispatched_at - t_ready,
            worker_id=worker.id,
        )
        pool.timeouts += 1
        if pending:
            pool._spawn()
            pool.respawns += 1

    try:
        pool.start(min(jobs, len(items)))
        pool_stats["workers"] = len(pool.workers)
        while any(r is None for r in results):
            for worker in pool.idle():
                if not pending:
                    break
                dispatch(worker, pending.popleft())
            busy = pool.busy()
            if not busy:
                # Results may have been filled by unsendable-item rows
                # without any worker in flight.
                if pending:
                    continue
                break
            wait_for: Optional[float] = None
            now = time.perf_counter()
            for worker in busy:
                if worker.deadline is not None:
                    remaining = max(0.0, worker.deadline - now)
                    wait_for = (
                        remaining
                        if wait_for is None
                        else min(wait_for, remaining)
                    )
            by_conn = {worker.conn: worker for worker in busy}
            ready = _connection_wait(list(by_conn), timeout=wait_for)
            for conn in ready:
                reap(by_conn[conn])
            now = time.perf_counter()
            for worker in pool.busy():
                if worker.deadline is not None and now >= worker.deadline:
                    expire(worker)
    finally:
        pool.shutdown()
        pool_stats["respawns"] = pool.respawns
        pool_stats["crashes"] = pool.crashes
        pool_stats["timeouts"] = pool.timeouts

    assert all(r is not None for r in results)
    return results  # type: ignore[return-value]
