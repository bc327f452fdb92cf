"""Smoke-size runs of every workload, and the span arithmetic.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import measure
import tracing
import workloads
from conftest import BENCH_DIR, ROOT

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)

WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture
def smoke(monkeypatch):
    """Shrink every pool to one episode per kernel and setup to one build."""
    monkeypatch.setattr(workloads, "PFL_EPISODES", workloads.PFL_EPISODES[:1])
    monkeypatch.setattr(workloads, "SREC_SCENE_SEEDS", (0,))
    monkeypatch.setattr(workloads, "SREC_FRAMES", 3)
    monkeypatch.setattr(workloads, "PP2D_SEEDS", workloads.PP2D_SEEDS[:1])
    monkeypatch.setattr(workloads, "PP3D_SEEDS", workloads.PP3D_SEEDS[:1])
    monkeypatch.setattr(workloads, "MPC_SPEEDS", workloads.MPC_SPEEDS[:1])
    monkeypatch.setattr(workloads, "SETUP_MIN_REPS", 1)
    monkeypatch.setattr(workloads, "SETUP_SHARE", 0.0)


def _units(entries):
    return {e["name"]: e["unit"] for e in entries}


def _emitted_units(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


def test_spec_lists_every_workload():
    import run

    assert WORKLOAD_NAMES == list(workloads.WORKLOADS)
    assert WORKLOAD_NAMES == list(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_measure_run_emits_end_to_end_metrics(name, smoke, tmp_path):
    result, diagnostics = measure.measure_run(name, 3, 0.0, str(tmp_path))
    assert _emitted_units(result) == _units(SPEC["end_to_end"])
    assert result["correct"]
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    assert diagnostics["fail_frac"] == 0.0
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert set(diagnostics["threads"]) == set(measure.THREAD_VARS)
    assert diagnostics["host.calib_ms"]["after"] > 0


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_trace_run_counts_repeat_for_a_seed(name, smoke, tmp_path):
    path = str(tmp_path / "trace.json")
    first, diagnostics = measure.trace_run(name, 5, str(tmp_path), path)
    second, _ = measure.trace_run(name, 5, str(tmp_path), path)
    assert _emitted_units(first) == _units(SPEC["per_layer"])
    assert first["correct"] and first["failed"] == 0
    assert diagnostics["fail_frac"] == 0.0

    def counts(result):
        return {
            k: m["value"]
            for k, m in result["metrics"].items()
            if m["unit"] == "count"
        }

    assert counts(first) == counts(second)
    assert any(counts(first).values())
    with open(path) as fh:
        dumped = json.load(fh)
    assert len(dumped["spans"]) == diagnostics["spans"]


def test_golden_mismatch_fails_the_job(smoke, tmp_path, monkeypatch):
    goldens = workloads.load_goldens()
    for golden in goldens.values():
        golden["expansions"] += 1
    monkeypatch.setattr(workloads, "load_goldens", lambda: goldens)
    result, diagnostics = measure.measure_run("reconstruct_plan", 0, 0.0, str(tmp_path))
    assert not result["correct"]
    # The grid queries fail; the srec frames between them pass.
    assert 0 < result["failed"] < result["attempted"]
    assert diagnostics["fail_frac"] == result["failed"] / result["attempted"]


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_seed_rotates_the_fixed_pool(name):
    pool = [ep.label for ep in workloads.WORKLOADS[name]()]
    assert len(set(pool)) == len(pool)
    starts = set()
    for seed in range(8):
        labels = [ep.label for ep in workloads.episodes_for(name, seed)]
        first = pool.index(labels[0])
        assert labels == pool[first:] + pool[:first]
        starts.add(first)
    assert len(starts) > 1


def test_pools_mix_their_kernels():
    kernels = {
        name: [ep.kernel.name for ep in workloads.WORKLOADS[name]()]
        for name in WORKLOAD_NAMES
    }
    assert kernels["localize_track"][:2] == ["01.pfl", "14.mpc"]
    assert set(kernels["reconstruct_plan"]) == {"03.srec", "04.pp2d", "05.pp3d"}
    assert kernels["reconstruct_plan"][:3] == ["04.pp2d", "03.srec", "05.pp3d"]


def test_typical_pass_takes_each_jobs_median():
    def make_pass(latencies, scale, between_s):
        return workloads.Pass(
            workloads.JobLog(list(latencies)), [scale] * len(latencies), between_s
        )

    passes = [
        make_pass([1.0, 4.0], 1.0, 0.5),
        make_pass([3.0, 2.0], 1.0, 0.1),
        make_pass([1.0, 2.0], 2.0, 0.3),  # host 2x the reference: 2.0, 4.0
    ]
    latencies, between_s = workloads.typical_pass(passes)
    assert latencies == [2.0, 4.0]
    assert between_s == 0.3
    assert workloads.jobs_per_s(latencies, between_s) == pytest.approx(2 / 6.3)


def _span(name, start, end, parent=None):
    return tracing.Span(name, start, end, parent=parent)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span("step", 0.0, 10.0),
        _span("raycast", 1.0, 4.0, parent=0),
        _span("mpc", 3.0, 6.0, parent=0),  # overlaps raycast by 1
        _span("icp", 2.0, 3.0, parent=1),
        _span("step", 20.0, 22.0),
        _span("search", 19.0, 21.0, parent=4),  # starts before its parent
    ]
    assert tracing.self_times(spans) == pytest.approx(
        {"step": 5.0 + 1.0, "raycast": 2.0, "mpc": 3.0, "icp": 1.0, "search": 2.0}
    )


def test_tracer_records_parent_and_job():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    tracer.job = 7
    assert outer(1) == 4
    (o, i) = tracer.spans
    assert (o.name, o.parent, o.job, o.start, o.end) == ("outer", None, 7, 0.0, 3.0)
    assert (i.name, i.parent, i.job, i.start, i.end) == ("inner", 0, 7, 1.0, 2.0)
    assert tracing.self_times(tracer.spans) == {"outer": 2.0, "inner": 1.0}


def test_instrument_restores_entry_points():
    from repro.sensors.lidar import Lidar

    original = Lidar.__dict__["expected_ranges_batch"]
    with tracing.instrument(tracing.Tracer()):
        assert Lidar.__dict__["expected_ranges_batch"] is not original
    assert Lidar.__dict__["expected_ranges_batch"] is original


def test_null_profiler_records_nothing():
    prof = tracing.NullProfiler()
    with prof.phase("x"):
        prof.count("n", 3)
    assert prof.stats == {} and prof.counters == {}


def test_run_without_sources_exits_nonzero(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench")
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "localize_track",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
