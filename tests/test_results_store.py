"""The append-only result store, including the legacy-schema loader."""

from __future__ import annotations

import json
import os

import pytest

from repro.results import (
    EnvironmentFingerprint,
    Measurement,
    ResultStore,
    RunRecord,
)

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def _record(kind="bench", value=6.0, run_id=""):
    return RunRecord(
        kind=kind,
        run_id=run_id,
        measurements={"raycast.speedup": Measurement(value, "ratio", True)},
    )


@pytest.fixture
def store(tmp_path):
    return ResultStore(str(tmp_path / "results"))


def test_save_creates_history_and_latest_pointer(store):
    record = _record(run_id="20260806T000000Z-aaaaaa")
    path = store.save(record)
    assert os.path.exists(path)
    assert store.kinds() == ["bench"]
    assert store.history("bench") == [path]
    assert store.latest_path("bench") == path
    loaded = store.latest("bench")
    assert loaded is not None
    assert loaded.run_id == record.run_id


def test_save_never_overwrites_a_run_id(store):
    first = _record(run_id="20260806T000000Z-aaaaaa")
    second = _record(run_id="20260806T000000Z-aaaaaa")
    path_a = store.save(first)
    path_b = store.save(second)
    assert path_a != path_b
    assert second.run_id != first.run_id
    assert len(store.history("bench")) == 2
    # LATEST follows the newest write.
    assert store.latest("bench").run_id == second.run_id


def test_load_by_every_reference_form(store):
    record = _record(run_id="20260806T000000Z-aaaaaa")
    path = store.save(record)
    for ref in (
        path,
        "bench",
        "bench@latest",
        f"bench@{record.run_id}",
    ):
        assert store.load(ref).run_id == record.run_id


def test_load_unknown_references_raise(store):
    with pytest.raises(FileNotFoundError, match="neither a file nor a kind"):
        store.load("suite@latest")
    store.save(_record())
    with pytest.raises(FileNotFoundError, match="no record"):
        store.load("bench@20990101T000000Z-ffffff")


def test_latest_pointer_fallback_to_history(store):
    path = store.save(_record(run_id="20260806T000000Z-aaaaaa"))
    os.unlink(os.path.join(os.path.dirname(path), "LATEST"))
    assert store.latest_path("bench") == path


def test_env_var_relocates_default_store(tmp_path, monkeypatch):
    monkeypatch.setenv("RTRBENCH_RESULTS_DIR", str(tmp_path / "relocated"))
    assert ResultStore().root == str(tmp_path / "relocated")
    assert ResultStore("explicit").root == "explicit"


def test_stored_file_is_pretty_printed_json(store):
    path = store.save(_record())
    payload = json.loads(open(path).read())
    assert payload["schema_version"] >= 2
    assert payload["measurements"]["raycast.speedup"]["value"] == 6.0


# -- legacy-schema loading -----------------------------------------------------


def test_legacy_bench_fixture_loads_as_record(store):
    record = store.load(f"{FIXTURES}/legacy_BENCH_hotpaths.json")
    assert record.kind == "bench"
    assert record.schema_version == 0
    assert record.has_tag("legacy-schema")
    assert record.environment == EnvironmentFingerprint.unknown()
    assert record.metric("raycast.speedup") == pytest.approx(5.3627, rel=1e-3)
    assert record.metric("nn.ops") > 0


def test_legacy_suite_fixture_loads_as_record(store):
    record = store.load(f"{FIXTURES}/legacy_BENCH_suite.json")
    assert record.kind == "suite"
    assert record.schema_version == 0
    assert record.has_tag("legacy-schema")
    assert record.metric("suite.failures") == 0.0
    assert record.metric("suite.parallel_speedup") == pytest.approx(
        0.7264, rel=1e-3
    )
    assert record.metric("determinism.match") == 1.0
    assert record.metric("cache.hit_speedup") == pytest.approx(
        19.85, rel=1e-2
    )


def test_legacy_rt_fixture_loads_as_record(store):
    record = store.load(f"{FIXTURES}/legacy_BENCH_rt.json")
    assert record.kind == "rt"
    assert record.schema_version == 0
    assert record.has_tag("legacy-schema")
    assert record.metric("slo.pass") == 1.0
    assert record.metric("degradation.p99_ratio") == pytest.approx(
        4.158, rel=1e-3
    )
    assert record.metric("unloaded.response_p99_ms") > 0.0
    # The untouched legacy payload rides along for the human renderers.
    assert set(record.detail) == {"rt", "conditions", "degradation", "slo"}


def test_unrecognized_document_raises(store, tmp_path):
    bogus = tmp_path / "bogus.json"
    bogus.write_text(json.dumps({"hello": "world"}))
    with pytest.raises(ValueError, match="unrecognized report document"):
        store.load(str(bogus))


def test_truncated_record_raises_naming_the_file(store):
    path = store.save(_record(run_id="20260806T000000Z-aaaaaa"))
    with open(path) as fh:
        text = fh.read()
    with open(path, "w") as fh:
        fh.write(text[: len(text) // 2])
    with pytest.raises(ValueError, match="corrupt record") as excinfo:
        store.load(path)
    assert path in str(excinfo.value)
    with pytest.raises(ValueError, match="corrupt record"):
        store.latest("bench")


def test_non_object_record_raises_naming_the_file(store, tmp_path):
    listing = tmp_path / "listing.json"
    listing.write_text("[1, 2, 3]\n")
    with pytest.raises(ValueError, match="JSON list, not an object") as exc:
        store.load(str(listing))
    assert str(listing) in str(exc.value)


def test_current_schema_file_roundtrips_through_store(store, tmp_path):
    record = _record(run_id="20260806T000000Z-aaaaaa")
    path = store.save(record)
    reloaded = store.load(path)
    assert reloaded.schema_version == record.schema_version
    assert not reloaded.has_tag("legacy-schema")
    assert reloaded.measurements == record.measurements
