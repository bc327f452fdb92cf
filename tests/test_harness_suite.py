"""Tests for the end-to-end suite executor (``rtrbench suite``)."""

from __future__ import annotations

import os

import pytest

from repro.harness.suite import (
    RT_SUITE_KERNELS_SMOKE,
    SMOKE_KERNELS,
    filter_tasks,
    run_suite,
    suite_tasks,
)
from repro.results import evaluate_gates, record_from_suite

#: Tiny kernel subset that keeps suite-level tests fast.
FAST_KERNELS = ("11.sym-blkw", "13.dmp", "15.cem")


def _gate_by_name(record):
    return {r.gate: r for r in evaluate_gates(record)}


def test_suite_tasks_cover_all_sections():
    tasks = suite_tasks(smoke=True)
    sections = {t["section"] for t in tasks}
    assert sections == {"characterize", "bench", "fig21", "rt"}
    names = [t["name"] for t in tasks]
    assert len(names) == len(set(names))
    for kernel in SMOKE_KERNELS:
        assert f"characterize:{kernel}" in names
    for kernel, granularity in RT_SUITE_KERNELS_SMOKE:
        suffix = ":step" if granularity == "step" else ""
        assert f"rt:{kernel}{suffix}" in names


def test_filter_tasks_by_full_name_glob():
    tasks = suite_tasks(smoke=True)
    selected = filter_tasks(tasks, "rt:*")
    assert selected
    assert all(t["section"] == "rt" for t in selected)


def test_filter_tasks_matches_suffix_after_colon():
    tasks = suite_tasks(smoke=True)
    selected = filter_tasks(tasks, "15.cem")
    names = {t["name"] for t in selected}
    assert names == {"characterize:15.cem", "rt:15.cem"}


def test_filter_tasks_none_keeps_everything():
    tasks = suite_tasks(smoke=True)
    assert filter_tasks(tasks, None) == list(tasks)


def test_filter_tasks_no_match_raises_with_name_list():
    tasks = suite_tasks(smoke=True)
    with pytest.raises(ValueError, match="matches no suite tasks"):
        filter_tasks(tasks, "nonexistent-*")
    try:
        filter_tasks(tasks, "zzz")
    except ValueError as exc:
        assert "characterize:" in str(exc)  # lists the available names


def test_suite_tasks_seeds_are_content_derived():
    first = suite_tasks(smoke=True, seed=7)
    again = suite_tasks(smoke=True, seed=7)
    other = suite_tasks(smoke=True, seed=8)
    bench = [t for t in first if t["section"] == "bench"]
    assert [t["seed"] for t in bench] == [
        t["seed"] for t in again if t["section"] == "bench"
    ]
    assert [t["seed"] for t in bench] != [
        t["seed"] for t in other if t["section"] == "bench"
    ]


@pytest.fixture(scope="module")
def smoke_report():
    """One parallel smoke run with the opt-in serial (jobs=1) baseline."""
    return run_suite(jobs=4, smoke=True, kernels=FAST_KERNELS, baseline=True)


def test_report_schema(smoke_report):
    suite = smoke_report["suite"]
    assert suite["jobs"] == 4
    assert suite["task_count"] == len(smoke_report["tasks"])
    assert suite["failures"] == 0
    assert suite["wall_s"] > 0.0
    assert suite["serial_wall_s"] > 0.0
    assert suite["parallel_speedup"] == pytest.approx(
        suite["serial_wall_s"] / suite["wall_s"]
    )
    assert suite["dispatch_overhead_s"] >= 0.0
    assert 0.0 <= suite["dispatch_overhead_share"] < 1.0
    assert 0.0 < suite["worker_utilization"] <= 1.0
    executor = suite["executor"]
    assert executor["workers"] >= 2
    assert executor["scheduling"] in ("longest-first", "input-order")
    for row in smoke_report["tasks"]:
        assert row["ok"], row
        assert row["wall_s"] > 0.0
        assert row["roi_s"] >= 0.0
        assert row["setup_s"] >= 0.0
        assert row["exec_s"] > 0.0
        assert row["queue_wait_s"] >= 0.0
        assert "cache" in row


def test_parallel_matches_serial(smoke_report):
    """The acceptance guarantee: -j N and -j 1 produce identical outputs.

    Fingerprints digest each task's operation counters / deterministic
    work counts — the timing-free portion of its result — and the report
    cross-checks them between the parallel and serial passes.
    """
    determinism = smoke_report["determinism"]
    assert determinism["checked"]
    assert determinism["matches"], determinism["mismatches"]


def test_cache_probe_beats_cold_build(smoke_report):
    probe = smoke_report["cache"]["probe"]
    assert probe["cold_build_s"] > 0.0
    assert probe["warm_hit_s"] > 0.0
    # The full-size floor is 5x; even the smoke map clears 2x with
    # headroom on a loaded machine.
    assert probe["hit_speedup"] > 2.0


def test_record_from_suite_mints_structural_measurements(smoke_report):
    record = record_from_suite(smoke_report)
    assert record.kind == "suite"
    assert record.has_tag("smoke")
    assert record.metric("suite.failures") == 0.0
    assert record.metric("determinism.match") == 1.0
    assert record.metric("cache.hit_speedup") > 2.0
    assert record.metric("suite.parallel_speedup") > 0.0
    task_metrics = [
        name for name in record.metric_names() if name.startswith("tasks.")
    ]
    assert task_metrics


def test_structural_gates_active_even_on_smoke(smoke_report):
    # Failed-task and determinism gates are machine-independent, so they
    # keep judging smoke records (stricter than the retired checker,
    # which skipped everything on smoke).
    by_name = _gate_by_name(record_from_suite(smoke_report))
    assert by_name["suite.no-failed-tasks"].passed
    assert by_name["suite.determinism"].passed
    assert by_name["suite.parallel-speedup-floor"].status == "skip"
    assert by_name["suite.cache-hit-speedup-floor"].status == "skip"


def test_two_parallel_runs_reproduce_every_result(tmp_path):
    """Two parallel runs succeed and fingerprint every task alike.

    Each forked worker builds its own workloads through its in-process
    memo; nothing is shared between the runs but the compiled cores.
    """
    from repro import native
    from repro.envs.cache import WorkloadCache, default_cache, set_default_cache

    previous = default_cache()
    set_default_cache(WorkloadCache(cache_dir=str(tmp_path / "cache")))
    native.load_function.cache_clear()  # workers build into the fresh dir
    try:
        runs = [
            run_suite(jobs=2, smoke=True, results_dir=str(tmp_path / "r"))
            for _ in range(2)
        ]
    finally:
        native.load_function.cache_clear()
        set_default_cache(previous)
    fingerprints = [
        {row["task"]: row["fingerprint"] for row in run["tasks"]}
        for run in runs
    ]
    assert all(row["ok"] for run in runs for row in run["tasks"])
    assert fingerprints[0] == fingerprints[1]
    # The cache dir holds compiled cores and nothing else.
    names = os.listdir(tmp_path / "cache")
    assert names and all(name.endswith(".so") for name in names)


def test_failing_kernel_becomes_failure_row_not_dead_suite():
    report = run_suite(
        jobs=2,
        smoke=True,
        kernels=["15.cem", "no-such-kernel"],
    )
    by_task = {row["task"]: row for row in report["tasks"]}
    bad = by_task["characterize:no-such-kernel"]
    assert not bad["ok"]
    assert "no-such-kernel" in bad["error"]
    good = by_task["characterize:15.cem"]
    assert good["ok"]
    assert report["suite"]["failures"] == 1
    by_name = _gate_by_name(record_from_suite(report))
    assert by_name["suite.no-failed-tasks"].failed


def _synthetic_report(
    parallel_speedup, hit_speedup, matches=True, failures=0,
    worker_utilization=0.8, dispatch_overhead_share=0.02,
):
    return {
        "suite": {
            "jobs": 4,
            "seed": 7,
            "smoke": False,
            "task_count": 2,
            "failures": failures,
            "wall_s": 1.0,
            "serial_wall_s": parallel_speedup,
            "parallel_speedup": parallel_speedup,
            "worker_utilization": worker_utilization,
            "dispatch_overhead_s": dispatch_overhead_share,
            "dispatch_overhead_share": dispatch_overhead_share,
        },
        "cache": {"probe": {"hit_speedup": hit_speedup,
                            "cold_build_s": 1.0, "warm_hit_s": 0.1}},
        "determinism": {"checked": True, "matches": matches,
                        "mismatches": [] if matches else ["bench:raycast"]},
        "tasks": [
            {"task": "fine", "ok": True, "wall_s": 0.5, "roi_s": 0.4},
            {"task": "slow", "ok": failures == 0, "wall_s": 0.5,
             "roi_s": 0.4},
        ],
    }


def test_suite_gates_pass_good_report():
    record = record_from_suite(_synthetic_report(3.0, 6.0))
    outcomes = evaluate_gates(record)
    assert outcomes and all(r.passed for r in outcomes)


def test_suite_gates_flag_regressions():
    record = record_from_suite(
        _synthetic_report(
            1.0, 1.0, matches=False, failures=1,
            worker_utilization=0.1, dispatch_overhead_share=0.5,
        )
    )
    by_name = _gate_by_name(record)
    assert by_name["suite.no-failed-tasks"].failed
    assert by_name["suite.determinism"].failed
    assert by_name["suite.parallel-speedup-floor"].failed
    assert by_name["suite.cache-hit-speedup-floor"].failed
    assert by_name["suite.worker-utilization-floor"].failed
    assert by_name["suite.dispatch-overhead-ceiling"].failed


def test_single_core_tag_sidelines_parallel_timing_gates():
    """One usable CPU cannot express parallelism; the floors step aside."""
    from repro.results.record import EnvironmentFingerprint

    env = EnvironmentFingerprint(python="3.11", cpu_count=1)
    record = record_from_suite(_synthetic_report(0.8, 6.0), env=env)
    assert record.has_tag("single-core")
    by_name = _gate_by_name(record)
    assert by_name["suite.parallel-speedup-floor"].status == "skip"
    assert by_name["suite.worker-utilization-floor"].status == "skip"
    # Structural gates keep judging: they are machine-independent.
    assert by_name["suite.no-failed-tasks"].passed
    assert by_name["suite.determinism"].passed


def test_serial_only_report_skips_speedup_gate():
    report = run_suite(jobs=1, smoke=True, kernels=FAST_KERNELS)
    assert report["suite"]["serial_wall_s"] is None
    assert "nothing to compare" in report["suite"]["parallel_speedup_reason"]
    assert not report["determinism"]["checked"]
    record = record_from_suite(report)
    # No parallel pass -> no speedup/determinism measurements -> the
    # corresponding gates step aside instead of failing.
    assert record.metric("suite.parallel_speedup") is None
    assert record.metric("determinism.match") is None
    by_name = _gate_by_name(record)
    assert by_name["suite.parallel-speedup-floor"].status == "skip"
    assert by_name["suite.determinism"].status == "skip"


@pytest.fixture(scope="module")
def run_beside_stored_serial_record(tmp_path_factory):
    """A parallel run without --baseline next to a comparable serial record.

    The store holds a serial suite record of the same smoke mode, seed
    and task list.
    """
    from repro.results import ResultStore

    results_dir = str(tmp_path_factory.mktemp("results"))
    kernels = ["13.dmp", "15.cem"]
    serial = run_suite(
        jobs=1, smoke=True, kernels=kernels, results_dir=results_dir
    )
    ResultStore(results_dir).save(record_from_suite(serial))
    return run_suite(
        jobs=2, smoke=True, kernels=kernels, results_dir=results_dir
    )


def test_stored_record_orders_dispatch_longest_first(
    run_beside_stored_serial_record,
):
    """The stored record's per-task durations order dispatch."""
    report = run_beside_stored_serial_record
    assert report["suite"]["executor"]["scheduling"] == "longest-first"


def test_parallel_run_without_baseline_reports_no_speedup(
    run_beside_stored_serial_record,
):
    """Only the serial baseline pass measures speedup and determinism.

    A stored record may come from another commit or host, so even a
    comparable one never stands in for this run's baseline.
    """
    report = run_beside_stored_serial_record
    suite = report["suite"]
    assert suite["serial_wall_s"] is None
    assert suite["parallel_speedup"] is None
    assert "--baseline" in suite["parallel_speedup_reason"]
    assert not report["determinism"]["checked"]
    record = record_from_suite(report)
    assert record.metric("suite.parallel_speedup") is None
    assert record.metric("determinism.match") is None


def test_suite_registered_as_experiment():
    from repro.experiments import EXPERIMENTS

    assert "SUITE" in EXPERIMENTS
