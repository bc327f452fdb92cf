"""Tests for the rtrbench command-line interface (paper Fig. 20)."""

import json
import os
from dataclasses import dataclass

import pytest

from repro.harness.cli import main
from repro.harness.config import KernelConfig, option
from repro.harness.runner import Kernel, registry


@dataclass
class _FlagConfig(KernelConfig):
    iterations: int = option(1, "How many times")
    fancy: bool = option(False, "Enable fancy mode")


class _FlagKernel(Kernel):
    """Toy kernel with a boolean option, for --inputset expansion tests."""

    name = "98.flagtest"
    stage = "testing"
    config_cls = _FlagConfig

    def run_roi(self, config, state, profiler):
        with profiler.phase("noop"):
            return {"fancy": config.fancy, "iterations": config.iterations}


@pytest.fixture
def flag_kernel():
    """Register the toy kernel for one test, leaving the registry clean."""
    try:
        registry.register(_FlagKernel)
    except ValueError:
        pass
    yield
    registry.unregister(_FlagKernel.name)


def test_list_command_prints_all_kernels(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in ("01.pfl", "08.rrt", "16.bo"):
        assert name in out


def test_list_marks_steppable_kernels(capsys):
    assert main(["list"]) == 0
    lines = capsys.readouterr().out.splitlines()
    by_name = {line.split()[0]: line for line in lines if line.strip()}
    assert "steppable" in by_name["01.pfl"]
    assert "batch" in by_name["16.bo"]


def test_list_json_is_machine_readable(capsys):
    assert main(["list", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    by_name = {row["name"]: row for row in rows}
    assert len(by_name) >= 16
    assert by_name["01.pfl"]["stage"] == "perception"
    assert by_name["01.pfl"]["steppable"] is True
    assert by_name["16.bo"]["steppable"] is False
    assert by_name["14.mpc"]["description"]


def test_run_without_kernel_errors(capsys):
    assert main(["run"]) == 2
    assert "usage" in capsys.readouterr().err


def test_run_unknown_kernel_errors(capsys):
    assert main(["run", "doesnotexist"]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--help", "-h"])
def test_run_help_prints_usage_and_exits_zero(flag, capsys):
    assert main(["run", flag]) == 0
    captured = capsys.readouterr()
    assert "usage: rtrbench run <kernel>" in captured.out
    assert "error" not in captured.err


def test_run_unknown_backend_is_one_error_line(capsys):
    assert main(["run", "mpc", "--backend", "gpu"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "'gpu'" in err and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


def test_unknown_command_errors(capsys):
    assert main(["frobnicate"]) == 2


def test_no_args_prints_usage(capsys):
    assert main([]) == 0
    assert "rtrbench" in capsys.readouterr().out


def test_run_kernel_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "rrt", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    # The Fig. 20 options surface through the real CLI.
    assert "--epsilon" in out
    assert "--samples" in out
    assert "--bias" in out


def test_run_kernel_help_lists_choices_and_bounds(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "rrt", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "{map-c,map-f}" in out
    assert "(default: 4000; >= 1)" in out


def test_run_rejects_a_value_outside_the_declared_choices(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "bo", "--acquisition", "nope"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "'ucb'" in err and "'ei'" in err


def test_run_rejects_a_value_outside_the_declared_bounds(capsys):
    assert main(["run", "ekfslam", "--steps", "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "steps >= 1" in err
    assert "Traceback" not in err


def test_run_small_kernel_end_to_end(capsys):
    assert main(["run", "cem", "--iterations", "1", "--samples", "3"]) == 0
    out = capsys.readouterr().out
    assert "15.cem" in out
    assert "ROI time" in out


def test_run_writes_output_file(tmp_path, capsys):
    target = tmp_path / "result.txt"
    code = main(
        ["run", "cem", "--iterations", "1", "--samples", "3",
         "--output", str(target)]
    )
    assert code == 0
    assert target.exists()
    assert "15.cem" in target.read_text()


def test_run_repeats_records_roi_series(capsys):
    code = main(
        ["run", "cem", "--iterations", "1", "--samples", "3",
         "--repeats", "3", "--warmup", "1"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "roi_min_s" in out
    assert "roi_median_s" in out


def test_inputsets_lists_kernel(capsys):
    assert main(["inputsets", "pp2d"]) == 0
    out = capsys.readouterr().out
    assert "dense-city" in out


def test_inputsets_unknown_kernel_errors(capsys):
    assert main(["inputsets", "doesnotexist"]) == 2
    assert "error" in capsys.readouterr().err


def test_run_with_inputset_applies_overrides(capsys):
    assert main(
        ["run", "cem", "--inputset", "far-goal", "--iterations", "1",
         "--samples", "3"]
    ) == 0
    assert "15.cem" in capsys.readouterr().out


def test_run_with_unknown_inputset_errors(capsys):
    assert main(["run", "cem", "--inputset", "nope"]) == 2
    assert "error" in capsys.readouterr().err


def test_run_inputset_missing_name_errors(capsys):
    assert main(["run", "cem", "--inputset"]) == 2
    assert "requires a name" in capsys.readouterr().err


def test_inputset_boolean_override_expands_to_flag(
    capsys, monkeypatch, flag_kernel
):
    """A True boolean override becomes a bare flag, not a positional."""
    from repro.envs import inputsets

    monkeypatch.setitem(
        inputsets.INPUTSETS,
        "flagtest",
        {"fancy-on": {"fancy": True, "iterations": 2},
         "fancy-default": {"fancy": False, "iterations": 3}},
    )
    assert main(["run", "flagtest", "--inputset", "fancy-on"]) == 0
    out = capsys.readouterr().out
    assert "98.flagtest" in out
    # A False override matching the default must be omitted entirely.
    assert main(["run", "flagtest", "--inputset", "fancy-default"]) == 0


def test_characterize_subset(capsys):
    assert main(["characterize", "cem"]) == 0
    out = capsys.readouterr().out
    assert "15.cem" in out
    assert "matches" in out


def test_characterize_unknown_kernel_errors(capsys):
    assert main(["characterize", "doesnotexist"]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["characterize", "bench"])
def test_serial_drivers_take_no_jobs_flag(command, capsys):
    # Parallel runs go through the suite: rtrbench suite -j N --filter.
    with pytest.raises(SystemExit) as exc:
        main([command, "-j", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: -j" in capsys.readouterr().err


def test_suite_smoke_writes_report(tmp_path, capsys):
    target = tmp_path / "BENCH_suite.json"
    code = main(
        ["suite", "--smoke", "-j", "2", "--output", str(target)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "suite:" in out
    assert "executor:" in out
    assert "record stored at" in out
    document = json.loads(target.read_text())
    assert document["kind"] == "suite"
    assert document["schema_version"] >= 2
    assert "smoke" in document["tags"]
    assert document["measurements"]["suite.failures"]["value"] == 0.0
    # The nested report survives as the record's detail payload.
    report = document["detail"]
    assert set(report) == {"suite", "cache", "determinism", "tasks"}
    assert report["suite"]["jobs"] == 2
    assert report["suite"]["failures"] == 0
    assert any(
        row["task"].startswith("characterize:") for row in report["tasks"]
    )
    assert any(
        row["task"].startswith("rt:") for row in report["tasks"]
    )


def test_suite_filter_selects_task_subset(tmp_path, capsys):
    target = tmp_path / "BENCH_suite.json"
    code = main(
        ["suite", "--smoke", "--filter", "characterize:15.cem",
         "--output", str(target)]
    )
    assert code == 0
    report = json.loads(target.read_text())["detail"]
    assert report["suite"]["filter"] == "characterize:15.cem"
    assert [row["task"] for row in report["tasks"]] == [
        "characterize:15.cem"
    ]


def test_suite_names_a_corrupt_stored_record(tmp_path, capsys):
    from repro.results import ResultStore

    results_dir = str(tmp_path / "results")
    args = ["suite", "--smoke", "--filter", "characterize:15.cem",
            "--output", str(tmp_path / "BENCH_suite.json"),
            "--results-dir", results_dir]
    assert main(args) == 0
    path = ResultStore(results_dir).latest_path("suite")
    with open(path) as fh:
        text = fh.read()
    with open(path, "w") as fh:
        fh.write(text[:300])
    capsys.readouterr()
    # The newest record only orders dispatch, but a corrupt one must
    # not fall back to input order without a word.
    assert main(args) == 2
    assert f"corrupt record {path}" in capsys.readouterr().err


def test_suite_smoke_with_a_failed_task_exits_nonzero(
    tmp_path, capsys, monkeypatch
):
    # --smoke skips only the gates tagged for it; suite.no-failed-tasks
    # judges smoke records too, so a failed task fails the command.
    from repro.harness import suite

    def broken(task):
        raise RuntimeError("task exploded")

    monkeypatch.setattr(suite, "run_suite_task", broken)
    code = main(
        ["suite", "--smoke", "--filter", "characterize:15.cem",
         "--output", str(tmp_path / "BENCH_suite.json")]
    )
    assert code == 1
    assert "GATE FAILURE suite.no-failed-tasks" in capsys.readouterr().err


def test_suite_zero_jobs_errors(tmp_path, capsys):
    target = tmp_path / "BENCH_suite.json"
    code = main(
        ["suite", "--smoke", "-j", "0", "--filter", "characterize:15.cem",
         "--output", str(target), "--no-store"]
    )
    assert code == 2
    assert "jobs must be >= 1" in capsys.readouterr().err
    assert not target.exists()


def test_suite_filter_with_no_match_errors(capsys):
    code = main(["suite", "--smoke", "--filter", "no-such-task-*"])
    assert code == 2
    err = capsys.readouterr().err
    assert "matches no suite tasks" in err


@pytest.fixture
def isolated_cache(tmp_path):
    """Point the process-wide workload cache at a private temp directory."""
    from repro.envs.cache import WorkloadCache, set_default_cache

    cache = WorkloadCache(cache_dir=str(tmp_path / "cache"))
    set_default_cache(cache)
    yield cache
    set_default_cache(None)


def _plant_cores(cache, names):
    """Stand-in compiled cores (and other files) in the cache dir."""
    os.makedirs(cache.cache_dir, exist_ok=True)
    for name in names:
        with open(os.path.join(cache.cache_dir, name), "wb") as fh:
            fh.write(b"\0" * 10)


def test_cache_stats_reports_dir_and_usage(isolated_cache, capsys):
    isolated_cache.get_or_build("toy", {"n": 1}, lambda: list(range(100)))
    _plant_cores(isolated_cache, ["_astar-0.so"])
    assert main(["cache"]) == 0
    out = capsys.readouterr().out
    assert f"cache dir: {isolated_cache.cache_dir}" in out
    assert "entries: 1" in out
    assert "bytes: 10" in out
    assert "this process: 0 hits, 1 misses" in out


def test_cache_clear_empties_disk_layer(isolated_cache, capsys):
    _plant_cores(isolated_cache, ["_astar-0.so", "_raycast-0.so", "notes.txt"])
    assert isolated_cache.disk_stats()["entries"] == 2
    assert main(["cache", "clear"]) == 0
    out = capsys.readouterr().out
    assert "cleared 2 entries (20 bytes)" in out
    assert isolated_cache.disk_stats()["entries"] == 0
    assert os.listdir(isolated_cache.cache_dir) == ["notes.txt"]


def test_cache_stats_json_is_machine_readable(isolated_cache, capsys):
    isolated_cache.get_or_build("toy", {"n": 1}, lambda: list(range(100)))
    isolated_cache.get_or_build("toy", {"n": 1}, lambda: list(range(100)))
    assert main(["cache", "stats", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["cache_dir"] == isolated_cache.cache_dir
    # A built workload leaves nothing on disk to count.
    assert payload["entries"] == 0
    assert payload["process"]["misses"] == 1
    assert payload["process"]["memory_hits"] == 1
    assert payload["process"]["per_category"] == {"toy": 2}


def test_cache_stats_json_counts_only_compiled_cores(isolated_cache, capsys):
    from repro.envs.mapgen import wean_hall_like

    wean_hall_like(rows=40, cols=50, seed=5)
    _plant_cores(isolated_cache, ["_astar-0.so", "_raycast-0.so",
                                  "stale.pkl", "_astar-1-x.tmp"])
    assert main(["cache", "stats", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["entries"], payload["bytes"]) == (2, 20)


def test_cache_stats_lists_per_category_lookups(isolated_cache, capsys):
    isolated_cache.get_or_build("toy", {"n": 1}, lambda: "x")
    isolated_cache.get_or_build("toy", {"n": 1}, lambda: "x")
    isolated_cache.get_or_build("other", {"n": 1}, lambda: "y")
    assert main(["cache", "stats"]) == 0
    out = capsys.readouterr().out
    assert "toy: 2 lookups" in out
    assert "other: 1 lookups" in out


# -- report / compare / gate ---------------------------------------------------

#: The committed schema-v2 records at the repository root.
REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HOTPATHS = os.path.join(REPO, "BENCH_hotpaths.json")
SUITE = os.path.join(REPO, "BENCH_suite.json")


def _hotpaths_copy(tmp_path, name, mutate):
    """A mutated copy of the committed bench record; returns its path."""
    with open(HOTPATHS) as fh:
        document = json.load(fh)
    mutate(document)
    path = tmp_path / name
    path.write_text(json.dumps(document))
    return str(path)


@pytest.fixture
def seeded_store(tmp_path):
    """A private result store holding one bench record."""
    from repro.results import ResultStore, record_from_bench

    store = ResultStore(str(tmp_path / "results"))
    record = record_from_bench(
        {
            phase: {"reference_s": speedup, "vectorized_s": 1.0,
                    "speedup": speedup, "ops": 10}
            for phase, speedup in
            (("raycast", 6.0), ("collision", 4.0), ("nn", 3.0))
        },
        smoke=False, seed=7,
    )
    store.save(record)
    return store


def test_report_lists_stored_history(seeded_store, capsys):
    assert main(["report", "--results-dir", seeded_store.root]) == 0
    out = capsys.readouterr().out
    assert "bench" in out
    assert "1 record(s)" in out


def test_report_renders_one_record(seeded_store, capsys):
    code = main(
        ["report", "bench@latest", "--results-dir", seeded_store.root]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "raycast.speedup" in out
    assert "schema" in out


def test_report_json_roundtrips_record(seeded_store, capsys):
    code = main(
        ["report", "bench", "--json", "--results-dir", seeded_store.root]
    )
    assert code == 0
    document = json.loads(capsys.readouterr().out)
    assert document["kind"] == "bench"
    assert document["measurements"]["raycast.speedup"]["value"] == 6.0


def test_report_unknown_ref_errors(seeded_store, capsys):
    code = main(
        ["report", "suite@latest", "--results-dir", seeded_store.root]
    )
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_compare_committed_record_against_itself(capsys):
    assert main(["compare", HOTPATHS, HOTPATHS]) == 0
    out = capsys.readouterr().out
    assert "raycast.speedup" in out


def test_compare_labels_a_regression_but_judges_nothing(tmp_path, capsys):
    """``compare`` reports deltas; pass/fail belongs to the gates."""
    def slow_down(document):
        document["measurements"]["raycast.speedup"]["value"] /= 10.0

    slower = _hotpaths_copy(tmp_path, "slower.json", slow_down)
    assert main(["compare", HOTPATHS, slower]) == 0
    out = capsys.readouterr().out
    assert "REGRESSED" in out
    assert "1 regressions" in out


def test_compare_names_a_record_of_another_schema(tmp_path, capsys):
    future = _hotpaths_copy(
        tmp_path, "future.json",
        lambda document: document.__setitem__("schema_version", 7),
    )
    assert main(["compare", HOTPATHS, future]) == 2
    err = capsys.readouterr().err
    assert f"unreadable record {future}" in err
    assert "schema_version 7" in err


def test_gate_cli_passes_stored_record(seeded_store, capsys):
    code = main(["gate", "--strict", "--results-dir", seeded_store.root])
    assert code == 0
    out = capsys.readouterr().out
    assert "bench.raycast-speedup-floor" in out
    assert "PASS" in out


def test_partial_bench_record_passes_strict_gate(
    tmp_path, monkeypatch, capsys
):
    # A --phases run stores a record that lacks the other phases'
    # metrics; it is tagged 'partial', so their floors skip, not fail.
    from repro.harness import bench

    row = {"reference_s": 6.0, "vectorized_s": 1.0, "speedup": 6.0,
           "ops": 10}
    monkeypatch.setitem(
        bench.BENCH_PHASES, "search_dijkstra", lambda smoke, seed: row
    )
    results_dir = str(tmp_path / "results")
    output = tmp_path / "partial.json"
    code = main(["bench", "--phases", "search_dijkstra", "--output",
                 str(output), "--results-dir", results_dir])
    assert code == 0
    assert json.loads(output.read_text())["tags"] == ["partial"]
    capsys.readouterr()
    assert main(["gate", "--strict", "--results-dir", results_dir]) == 0
    out = capsys.readouterr().out
    assert "bench.raycast-speedup-floor" in out
    assert "FAIL" not in out


def test_gate_cli_strict_fails_on_empty_store(tmp_path, capsys):
    empty = str(tmp_path / "empty")
    assert main(["gate", "--results-dir", empty]) == 0
    assert main(["gate", "--strict", "--results-dir", empty]) == 1
    assert "no records to gate" in capsys.readouterr().err


def test_gate_cli_strict_names_a_corrupt_record(seeded_store, capsys):
    path = seeded_store.latest_path("bench")
    with open(path) as fh:
        text = fh.read()
    with open(path, "w") as fh:
        fh.write(text[:300])
    code = main(["gate", "--strict", "--results-dir", seeded_store.root])
    assert code == 1
    err = capsys.readouterr().err
    assert f"corrupt record {path}" in err


def test_gate_cli_judges_committed_record_files(tmp_path, capsys):
    results_dir = str(tmp_path / "results")
    # The committed records clear every gate that applies to them ...
    code = main(["gate", HOTPATHS, SUITE, "--results-dir", results_dir])
    assert code == 0
    # ... while a raycast speedup under its floor fails exactly that gate.
    slow = _hotpaths_copy(
        tmp_path, "slow.json",
        lambda document: document["measurements"]["raycast.speedup"]
        .__setitem__("value", 4.9),
    )
    assert main(["gate", slow, "--results-dir", results_dir]) == 1
    out = capsys.readouterr().out
    failed = [line.split()[0] for line in out.splitlines()
              if "  FAIL  " in line]
    assert failed == ["bench.raycast-speedup-floor"]


def test_gate_cli_strict_names_a_malformed_measurement(tmp_path, capsys):
    broken = _hotpaths_copy(
        tmp_path, "broken.json",
        lambda document: document["measurements"]["nn.speedup"].pop("value"),
    )
    results_dir = str(tmp_path / "results")
    code = main(["gate", "--strict", broken, "--results-dir", results_dir])
    assert code == 1
    err = capsys.readouterr().err
    assert f"unreadable record {broken}" in err
    assert "nn.speedup" in err


@pytest.mark.parametrize(
    "extra, named",
    [
        # A misspelt skip_tags would leave the gate failing the smoke
        # records it was meant to skip.
        ({"skip_tag": ["smoke"]}, "skip_tag"),
        # Gates judge one record on its own, never a stored baseline.
        ({"baseline": "latest", "max_regression": 0.1},
         "baseline, max_regression"),
    ],
    ids=["misspelt-skip-tags", "stored-baseline"],
)
def test_gate_cli_rejects_a_gates_file_with_unknown_keys(
    tmp_path, capsys, extra, named
):
    gate = {"name": "floor", "kind": "bench", "metric": "raycast.speedup",
            "op": ">=", "threshold": 5.0}
    gates = tmp_path / "gates.json"
    gates.write_text(json.dumps([dict(gate, **extra)]))
    code = main(["gate", "--gates", str(gates), HOTPATHS,
                 "--results-dir", str(tmp_path / "results")])
    assert code == 2
    assert f"unknown key(s) {named}" in capsys.readouterr().err
