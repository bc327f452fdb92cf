"""Serialization and environment-fingerprint tests for run records."""

from __future__ import annotations

import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.results import (
    RECORD_SCHEMA_VERSION,
    THREAD_ENV_VARS,
    EnvironmentFingerprint,
    Measurement,
    RunRecord,
    capture_environment,
    pinned_thread_env,
)


def _sample_record() -> RunRecord:
    return RunRecord(
        kind="bench",
        environment=capture_environment(),
        provenance={"seed": 7, "jobs": 2, "smoke": False},
        tags=["full"],
        measurements={
            "raycast.speedup": Measurement(6.5, "ratio", True),
            "raycast.reference_s": Measurement(1.3, "s", False),
            "raycast.ops": Measurement(4096, "count", None),
        },
        detail={"raycast": {"speedup": 6.5}},
    )


def test_record_autogenerates_identity():
    record = _sample_record()
    assert record.schema_version == RECORD_SCHEMA_VERSION
    assert record.created_at.endswith("Z")
    assert "-" in record.run_id and len(record.run_id) > 10


def test_record_roundtrip_through_json():
    record = _sample_record()
    payload = json.loads(json.dumps(record.to_dict()))
    loaded = RunRecord.from_dict(payload)
    assert loaded.kind == record.kind
    assert loaded.run_id == record.run_id
    assert loaded.created_at == record.created_at
    assert loaded.schema_version == record.schema_version
    assert loaded.tags == record.tags
    assert loaded.provenance == record.provenance
    assert loaded.measurements == record.measurements
    assert loaded.detail == record.detail
    assert loaded.environment == record.environment


def test_from_dict_rejects_legacy_documents():
    with pytest.raises(ValueError, match="schema_version"):
        RunRecord.from_dict({"raycast": {"speedup": 6.5}})
    document = _sample_record().to_dict()
    document["schema_version"] = 0
    with pytest.raises(ValueError, match="unsupported schema_version 0"):
        RunRecord.from_dict(document)


def test_metric_access():
    record = _sample_record()
    assert record.metric("raycast.speedup") == 6.5
    assert record.metric("no.such.metric") is None
    assert record.metric_names() == sorted(record.measurements)
    assert record.has_tag("full") and not record.has_tag("smoke")


_NAMES = st.text(
    alphabet=st.sampled_from("abcdefghij._-"), min_size=1, max_size=24
)
_VALUES = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-1e12, max_value=1e12
)


@settings(max_examples=50, deadline=None)
@given(
    measurements=st.dictionaries(
        _NAMES,
        st.builds(
            Measurement,
            value=_VALUES,
            unit=st.sampled_from(["", "s", "ms", "ratio", "count"]),
            higher_is_better=st.sampled_from([None, True, False]),
        ),
        max_size=8,
    ),
    tags=st.lists(st.sampled_from(["smoke", "full", "single-core"]),
                  max_size=2, unique=True),
)
def test_record_roundtrip_property(measurements, tags):
    record = RunRecord(
        kind="bench", measurements=measurements, tags=list(tags)
    )
    loaded = RunRecord.from_dict(json.loads(json.dumps(record.to_dict())))
    assert loaded.measurements == record.measurements
    assert loaded.tags == record.tags
    assert loaded.run_id == record.run_id


# -- thread-env pinning --------------------------------------------------------


def test_pinned_thread_env_pins_and_restores(monkeypatch):
    for var in THREAD_ENV_VARS:
        monkeypatch.delenv(var, raising=False)
    with pinned_thread_env() as effective:
        for var in THREAD_ENV_VARS:
            assert os.environ[var] == "1"
            assert effective[var] == "1"
    for var in THREAD_ENV_VARS:
        assert var not in os.environ


def test_pinned_thread_env_respects_user_settings(monkeypatch):
    monkeypatch.setenv("OMP_NUM_THREADS", "4")
    with pinned_thread_env() as effective:
        assert os.environ["OMP_NUM_THREADS"] == "4"
        assert effective["OMP_NUM_THREADS"] == "4"
        assert effective["MKL_NUM_THREADS"] == "1"
    assert os.environ["OMP_NUM_THREADS"] == "4"
    assert "MKL_NUM_THREADS" not in os.environ


# -- environment fingerprint ---------------------------------------------------


def test_capture_environment_records_interpreter_and_threads():
    env = capture_environment(thread_env={"OMP_NUM_THREADS": "1"})
    import platform

    assert env.python == platform.python_version()
    assert env.numpy
    assert env.cpu_count >= 1
    assert env.thread_env == {"OMP_NUM_THREADS": "1"}


def test_fingerprint_digest_is_short_and_stable():
    env = EnvironmentFingerprint(python="3.11", numpy="2.0", cpu_count=4)
    assert len(env.digest()) == 12
    assert env.digest() == EnvironmentFingerprint(
        python="3.11", numpy="2.0", cpu_count=4
    ).digest()


def test_fingerprint_differences_name_disagreeing_fields():
    a = EnvironmentFingerprint(python="3.11", numpy="2.0", cpu_count=4)
    b = EnvironmentFingerprint(python="3.12", numpy="2.0", cpu_count=8)
    assert a.differences(b) == ["cpu_count", "python"]
    assert a.differences(a) == []


def test_fingerprint_roundtrip():
    env = capture_environment()
    assert EnvironmentFingerprint.from_dict(env.as_dict()) == env
