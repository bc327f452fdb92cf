"""The append-only result store and its strict schema-v2 loader."""

from __future__ import annotations

import json
import os

import pytest

from repro.results import (
    Measurement,
    ResultStore,
    RunRecord,
)

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


# -- loading only well-formed schema-v2 records --------------------------------


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_unrecognized_document_raises(store, tmp_path):
    path = _write(tmp_path, "bogus.json", {"hello": "world"})
    with pytest.raises(ValueError, match="not a RunRecord document") as exc:
        store.load(path)
    assert path in str(exc.value)


def test_untyped_report_layout_raises_naming_the_file(store, tmp_path):
    # The pre-record BENCH_hotpaths.json layout: phase -> metric rows.
    path = _write(
        tmp_path, "old_hotpaths.json",
        {"raycast": {"reference_s": 1.0, "vectorized_s": 0.2,
                     "speedup": 5.0, "ops": 10}},
    )
    with pytest.raises(ValueError, match="missing schema_version") as exc:
        store.load(path)
    assert path in str(exc.value)


def test_other_schema_version_raises_naming_the_file(store, tmp_path):
    document = _record().to_dict()
    document["schema_version"] = 7
    path = _write(tmp_path, "future.json", document)
    with pytest.raises(ValueError, match="schema_version 7") as exc:
        store.load(path)
    assert path in str(exc.value)


def test_malformed_measurement_raises_naming_the_file(store, tmp_path):
    document = _record().to_dict()
    del document["measurements"]["raycast.speedup"]["value"]
    path = _write(tmp_path, "no_value.json", document)
    with pytest.raises(ValueError, match="raycast.speedup") as exc:
        store.load(path)
    assert path in str(exc.value)


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
    assert reloaded.measurements == record.measurements
