"""The hot-path perf-regression harness (``rtrbench bench``)."""

from __future__ import annotations

import json

import pytest

from repro.harness.bench import render_report, run_bench, run_bench_record
from repro.results import evaluate_gates, record_from_bench

PHASES = ("raycast", "collision", "nn", "search_dijkstra", "search_pp3d")
FIELDS = (
    "reference_s",
    "vectorized_s",
    "reference_cpu_s",
    "vectorized_cpu_s",
    "speedup",
    "ops",
)

#: Per-phase speedup floors as shipped in the default gate policy.
#: These gates fail when their metric is absent (``on_missing: fail``).
FLOORS = {"raycast": 5.0, "collision": 3.0, "nn": 2.0}

#: Search-core floors: ``on_missing: skip`` so records that
#: predate the metrics keep their verdicts.
SEARCH_FLOORS = {"search_dijkstra": 5.0, "search_pp3d": 2.0}


@pytest.fixture(scope="module")
def smoke_results():
    return run_bench(smoke=True)


#: Extra fields a phase reports: the CPU slices of raycast's timed calls.
EXTRA_FIELDS = {"raycast": ("slices",)}


def test_schema(smoke_results):
    assert set(smoke_results) == set(PHASES)
    for phase in PHASES:
        row = smoke_results[phase]
        assert set(row) == set(FIELDS + EXTRA_FIELDS.get(phase, ()))
        assert row["reference_s"] > 0.0
        assert row["vectorized_s"] > 0.0
        assert row["speedup"] == pytest.approx(
            row["reference_s"] / row["vectorized_s"]
        )
        assert isinstance(row["ops"], int) and row["ops"] > 0


def test_ops_deterministic(smoke_results):
    again = run_bench(smoke=True)
    for phase in PHASES:
        assert again[phase]["ops"] == smoke_results[phase]["ops"]


def test_cpu_time_recorded(smoke_results):
    for phase in PHASES:
        assert smoke_results[phase]["reference_cpu_s"] >= 0.0
        assert smoke_results[phase]["vectorized_cpu_s"] >= 0.0


def test_parallel_bench_matches_serial_ops(smoke_results):
    parallel = run_bench(smoke=True, jobs=3)
    assert set(parallel) == set(PHASES)
    for phase in PHASES:
        assert parallel[phase]["ops"] == smoke_results[phase]["ops"]


def test_gc_reenabled_after_bench(smoke_results):
    import gc

    assert gc.isenabled()


def test_render_report_lists_every_phase(smoke_results):
    text = render_report(smoke_results)
    for phase in PHASES:
        assert phase in text


# -- run records ---------------------------------------------------------------


def test_run_bench_record_mints_phase_measurements():
    record = run_bench_record(smoke=True, seed=7, jobs=2)
    assert record.kind == "bench"
    assert record.has_tag("smoke")
    assert record.provenance["seed"] == 7
    assert record.provenance["jobs"] == 2
    for phase in PHASES:
        speedup = record.metric(f"{phase}.speedup")
        assert speedup is not None and speedup > 0.0
        assert record.metric(f"{phase}.ops") > 0
    # The nested report survives as the record's detail payload.
    assert set(record.detail) == set(PHASES)


def test_raycast_records_the_slices_of_its_timed_calls(smoke_results):
    from repro.geometry.raycast import ray_slices

    # Smoke mode casts 64 particles x 30 beams per call.
    assert smoke_results["raycast"]["slices"] == ray_slices(64 * 30)
    record = record_from_bench(smoke_results, smoke=True)
    slices = smoke_results["raycast"]["slices"]
    assert record.metric("raycast.slices") == slices
    assert record.metric("collision.slices") is None


def test_run_bench_record_pins_thread_environment():
    record = run_bench_record(smoke=True)
    thread_env = record.environment.thread_env
    assert thread_env.get("OMP_NUM_THREADS")
    assert thread_env.get("OPENBLAS_NUM_THREADS")


def _synthetic_results(speedups):
    return {
        phase: {
            "reference_s": speedup,
            "vectorized_s": 1.0,
            "reference_cpu_s": speedup,
            "vectorized_cpu_s": 1.0,
            "speedup": speedup,
            "ops": 1,
        }
        for phase, speedup in speedups.items()
    }


def test_speedup_gates_pass_above_floors():
    floors = {**FLOORS, **SEARCH_FLOORS}
    results = _synthetic_results(
        {phase: floor * 2.0 for phase, floor in floors.items()}
    )
    record = record_from_bench(results, smoke=False)
    outcomes = evaluate_gates(record)
    assert outcomes and all(r.passed for r in outcomes)


def test_speedup_gates_flag_regression():
    floors = {**FLOORS, **SEARCH_FLOORS}
    results = _synthetic_results({phase: 1.0 for phase in floors})
    record = record_from_bench(results, smoke=False)
    failures = [r for r in evaluate_gates(record) if r.failed]
    assert len(failures) == len(floors)
    assert all("violates" in r.reason for r in failures)


def test_speedup_gates_flag_missing_phase():
    record = record_from_bench({}, smoke=False)
    outcomes = evaluate_gates(record)
    failures = [r for r in outcomes if r.failed]
    assert len(failures) == len(FLOORS)
    assert all("absent" in r.reason for r in failures)
    # The search floors step aside instead: records that predate the
    # search metrics must keep their verdicts.
    search_names = {f"bench.{p.replace('_', '-')}-speedup-floor"
                    for p in SEARCH_FLOORS}
    skipped = {r.gate for r in outcomes if r.status == "skip"}
    assert search_names <= skipped


def test_smoke_record_skips_speedup_gates():
    results = _synthetic_results({phase: 1.0 for phase in FLOORS})
    record = record_from_bench(results, smoke=True)
    outcomes = evaluate_gates(record)
    assert outcomes and all(r.status == "skip" for r in outcomes)


def test_cli_smoke(tmp_path, capsys):
    from repro.harness.cli import main

    out = tmp_path / "bench.json"
    assert main(["bench", "--smoke", "--output", str(out)]) == 0
    document = json.loads(out.read_text())
    assert document["kind"] == "bench"
    assert document["schema_version"] >= 2
    assert "raycast.speedup" in document["measurements"]
    assert set(document["detail"]) == set(PHASES)
    assert "speedup" in capsys.readouterr().out


# -- phase filtering -----------------------------------------------------------


def test_select_phases_glob_and_exact():
    from repro.harness.bench import BENCH_PHASES, select_phases

    assert list(select_phases(None)) == list(BENCH_PHASES)
    assert list(select_phases(["search_*"])) == [
        "search_dijkstra", "search_pp3d",
    ]
    assert list(select_phases(["nn"])) == ["nn"]
    # Order follows BENCH_PHASES, duplicates collapse.
    assert list(select_phases(["search_pp3d", "*"])) == list(BENCH_PHASES)


def test_select_phases_unknown_pattern_raises():
    from repro.harness.bench import select_phases

    with pytest.raises(ValueError, match="no bench phases match"):
        select_phases(["gpu_*"])


def test_run_bench_phase_filter_runs_subset():
    results = run_bench(smoke=True, phases=["nn"])
    assert set(results) == {"nn"}
    assert results["nn"]["ops"] > 0


def test_cli_phases_filter(tmp_path, capsys):
    from repro.harness.cli import main

    out = tmp_path / "bench_nn.json"
    assert main(
        ["bench", "--smoke", "--phases", "nn", "--output", str(out)]
    ) == 0
    document = json.loads(out.read_text())
    assert set(document["detail"]) == {"nn"}
    assert "skipping gate enforcement" in capsys.readouterr().out


def test_cli_phases_unknown_pattern_exits_2(capsys):
    from repro.harness.cli import main

    assert main(["bench", "--smoke", "--phases", "warpdrive"]) == 2
    assert "no bench phases match" in capsys.readouterr().err
