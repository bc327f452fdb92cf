"""Tests for the process-per-task suite executor (crash/timeout isolation)."""

from __future__ import annotations

import multiprocessing
import os
import time

import pytest

from repro.harness.parallel import (
    TaskResult,
    derive_seed,
    map_tasks,
    schedule_order,
)


def _square(x):
    return x * x


def _fail_on_two(x):
    if x == 2:
        raise ValueError("two is right out")
    return x


def _hang_on_one(x):
    if x == 1:
        time.sleep(60.0)
    return x


def _die_silently(x):
    if x == 1:
        os._exit(17)
    return x


def _unpicklable(_x):
    return lambda: None


def _pid(_x):
    return os.getpid()


# -- ordering and values -------------------------------------------------------


@pytest.mark.parametrize("jobs", [1, 3])
def test_results_in_input_order(jobs):
    results = map_tasks(_square, [3, 1, 2], jobs=jobs)
    assert [r.value for r in results] == [9, 1, 4]
    assert [r.index for r in results] == [0, 1, 2]
    assert all(r.ok for r in results)
    assert all(r.duration >= 0.0 for r in results)


def test_names_label_results():
    results = map_tasks(_square, [1, 2], jobs=2, names=["a", "b"])
    assert [r.name for r in results] == ["a", "b"]


def test_name_count_mismatch_raises():
    with pytest.raises(ValueError, match="names"):
        map_tasks(_square, [1, 2], names=["only-one"])


def test_empty_items():
    assert map_tasks(_square, [], jobs=4) == []


# -- one process per task -----------------------------------------------------


def test_serial_run_forks_a_child_per_task():
    """jobs=1 isolates each task too: no task runs in the parent."""
    results = map_tasks(_pid, list(range(4)), jobs=1)
    pids = [r.value for r in results]
    assert os.getpid() not in pids
    assert len(set(pids)) == 4
    assert [r.worker_id for r in results] == [0, 0, 0, 0]


def test_slots_bound_concurrency():
    results = map_tasks(_pid, list(range(6)), jobs=2)
    assert {r.worker_id for r in results} == {0, 1}
    assert len({r.value for r in results}) == 6


def test_jobs_below_one_raises():
    with pytest.raises(ValueError, match="jobs must be >= 1"):
        map_tasks(_square, [1], jobs=0)


def test_pool_stats_report_worker_count():
    stats = {}
    map_tasks(_square, list(range(6)), jobs=3, pool_stats=stats)
    assert stats == {"workers": 3, "crashes": 0, "timeouts": 0}


def test_pool_leaves_no_zombies_or_extra_fds():
    """Repeated executor runs (incl. timeouts) must not leak."""
    map_tasks(_square, list(range(4)), jobs=2)  # warm imports
    fds_before = len(os.listdir("/proc/self/fd"))
    for _ in range(3):
        map_tasks(_hang_on_one, [0, 1, 2], jobs=2, timeout=0.5)
    assert multiprocessing.active_children() == []
    fds_after = len(os.listdir("/proc/self/fd"))
    assert fds_after <= fds_before + 1  # no fd growth across lifecycles


# -- scheduling ----------------------------------------------------------------


def test_schedule_order_longest_first_and_stable():
    assert schedule_order(4, [1.0, 3.0, 2.0, 3.0]) == [1, 3, 2, 0]
    assert schedule_order(3, None) == [0, 1, 2]
    assert schedule_order(3, [0.0, 0.0, 0.0]) == [0, 1, 2]


def test_schedule_order_length_mismatch_raises():
    with pytest.raises(ValueError, match="priorities"):
        schedule_order(3, [1.0])


@pytest.mark.parametrize("jobs", [1, 2])
def test_priorities_do_not_change_results_or_order(jobs):
    plain = map_tasks(_square, [3, 1, 2], jobs=jobs)
    hinted = map_tasks(
        _square, [3, 1, 2], jobs=jobs, priorities=[0.1, 5.0, 2.0]
    )
    assert [r.value for r in plain] == [r.value for r in hinted]
    assert [r.index for r in hinted] == [0, 1, 2]


# -- executor accounting -------------------------------------------------------


def test_exec_and_queue_wait_recorded():
    results = map_tasks(_square, list(range(4)), jobs=2)
    for r in results:
        assert r.exec_s >= 0.0
        assert r.queue_wait_s >= 0.0
        assert r.duration >= r.exec_s  # dispatch overhead is non-negative


# -- crash isolation -----------------------------------------------------------


@pytest.mark.parametrize("jobs", [1, 2])
def test_exception_becomes_failure_row(jobs):
    results = map_tasks(_fail_on_two, [1, 2, 3], jobs=jobs)
    assert [r.ok for r in results] == [True, False, True]
    assert [r.value for r in results] == [1, None, 3]
    assert "two is right out" in results[1].error


def test_silent_worker_death_is_reported():
    results = map_tasks(_die_silently, [0, 1, 2], jobs=2)
    assert [r.ok for r in results] == [True, False, True]
    assert results[1].exitcode == 17
    assert "died without reporting" in results[1].error


def test_serial_run_reports_a_silent_death():
    """jobs=1 isolates a crash too: the parent survives to report it."""
    stats = {}
    results = map_tasks(_die_silently, [0, 1, 2], jobs=1, pool_stats=stats)
    assert [r.ok for r in results] == [True, False, True]
    assert results[1].exitcode == 17
    assert "died without reporting" in results[1].error
    assert stats["crashes"] == 1


def _sleep_or_die(x):
    if x == 1:
        os._exit(23)
    time.sleep(0.3)
    return x


def test_crash_is_isolated_and_remaining_tasks_complete():
    """A child lost mid-task costs one row; the rest of the queue drains.

    Tasks are slow enough that work is still pending when the crash is
    reaped, so its slot must be reused for the queue to finish.
    """
    stats = {}
    results = map_tasks(
        _sleep_or_die, list(range(6)), jobs=2, pool_stats=stats
    )
    assert [r.ok for r in results] == [
        True, False, True, True, True, True
    ]
    assert results[1].exitcode == 23
    assert stats["crashes"] == 1
    assert multiprocessing.active_children() == []


def test_unpicklable_result_is_reported_not_hung():
    results = map_tasks(_unpicklable, [0], jobs=2)
    assert not results[0].ok
    assert "not sendable" in results[0].error


# -- timeouts ------------------------------------------------------------------


def test_timeout_kills_only_the_hung_task():
    t0 = time.perf_counter()
    results = map_tasks(_hang_on_one, [0, 1, 2], jobs=2, timeout=1.5)
    elapsed = time.perf_counter() - t0
    assert [r.ok for r in results] == [True, False, True]
    assert results[1].timed_out
    assert "timeout" in results[1].error
    assert not results[0].timed_out and not results[2].timed_out
    # The suite survived the hang in roughly one timeout, not sleep(60).
    assert elapsed < 30.0


def test_serial_run_enforces_the_timeout():
    """jobs=1 preempts a hung task like any other jobs value."""
    stats = {}
    t0 = time.perf_counter()
    results = map_tasks(
        _hang_on_one, [0, 1, 2], jobs=1, timeout=1.5, pool_stats=stats
    )
    elapsed = time.perf_counter() - t0
    assert [r.ok for r in results] == [True, False, True]
    assert results[1].timed_out
    assert results[1].exitcode < 0  # ended by a signal
    assert stats["timeouts"] == 1
    assert multiprocessing.active_children() == []
    assert elapsed < 30.0


# -- determinism ---------------------------------------------------------------


def test_derive_seed_is_stable_and_content_keyed():
    assert derive_seed(7, "bench", "raycast") == derive_seed(
        7, "bench", "raycast"
    )
    assert derive_seed(7, "bench", "raycast") != derive_seed(
        7, "bench", "collision"
    )
    assert derive_seed(7, "a") != derive_seed(8, "a")
    seed = derive_seed(0, "x")
    assert 0 <= seed < 2**63


def test_parallel_and_serial_runs_match():
    serial = map_tasks(_square, list(range(8)), jobs=1)
    parallel = map_tasks(_square, list(range(8)), jobs=4)
    assert [r.value for r in serial] == [r.value for r in parallel]


def test_task_result_defaults():
    row = TaskResult(index=0, name="t", ok=True, value=1)
    assert row.error is None
    assert not row.timed_out
    assert row.exitcode is None
