"""The declarative gate engine and its verdicts on the committed records.

The second half of this module pins, per gate, what the shipped policy
rules on the committed ``BENCH_*.json`` records and on perturbed
variants that trip each individual check.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.results import (
    Gate,
    Measurement,
    ResultStore,
    RunRecord,
    default_gates,
    evaluate_gate,
    evaluate_gates,
)
from repro.results.gates import (
    DEFAULT_GATES,
    gate_failures,
    gates_from_dicts,
    gates_from_file,
    render_gate_results,
)

def _bench_record(value=6.0, tags=()):
    return RunRecord(
        kind="bench",
        tags=list(tags),
        measurements={"raycast.speedup": Measurement(value, "ratio", True)},
    )


def _floor_gate(**overrides):
    spec = dict(
        name="floor", kind="bench", metric="raycast.speedup",
        op=">=", threshold=5.0,
    )
    spec.update(overrides)
    return Gate(**spec)


# -- declaration validation ----------------------------------------------------


def test_gate_rejects_unknown_op():
    with pytest.raises(ValueError, match="unknown op"):
        _floor_gate(op="~=")


def test_gate_rejects_bad_on_missing():
    with pytest.raises(ValueError, match="on_missing"):
        _floor_gate(on_missing="explode")


def test_gate_requires_exactly_one_bound():
    # The fixed threshold is the one bound a gate has; it is required.
    with pytest.raises(ValueError, match="threshold must be a number"):
        _floor_gate(threshold=None)
    spec = _floor_gate().to_dict()
    del spec["threshold"]
    with pytest.raises(ValueError, match="missing key.*threshold"):
        Gate.from_dict(spec)


def test_gate_dict_roundtrip():
    for spec in DEFAULT_GATES:
        gate = Gate.from_dict(spec)
        assert Gate.from_dict(gate.to_dict()) == gate


def test_gates_from_file(tmp_path):
    path = tmp_path / "gates.json"
    path.write_text(json.dumps(DEFAULT_GATES))
    assert gates_from_file(str(path)) == default_gates()
    path.write_text(json.dumps({"not": "a list"}))
    with pytest.raises(ValueError, match="JSON list"):
        gates_from_file(str(path))


# -- evaluation edge cases -----------------------------------------------------


def test_threshold_boundary_is_inclusive_for_ge():
    gate = _floor_gate()
    assert evaluate_gate(gate, _bench_record(5.0)).passed
    assert evaluate_gate(gate, _bench_record(4.999)).failed


def test_exact_equality_op():
    gate = _floor_gate(op="==", threshold=0.0)
    assert evaluate_gate(gate, _bench_record(0.0)).passed
    assert evaluate_gate(gate, _bench_record(1e-9)).failed


def test_kind_mismatch_skips():
    result = evaluate_gate(
        _floor_gate(kind="suite"), _bench_record(1.0)
    )
    assert result.status == "skip"
    assert "kind" in result.reason


def test_skip_tags_exempt_tagged_records():
    gate = _floor_gate(skip_tags=("smoke",))
    assert evaluate_gate(gate, _bench_record(1.0, tags=["smoke"])).status == (
        "skip"
    )
    assert evaluate_gate(gate, _bench_record(1.0)).failed


def test_missing_metric_policy():
    empty = RunRecord(kind="bench")
    assert evaluate_gate(_floor_gate(on_missing="fail"), empty).failed
    assert evaluate_gate(
        _floor_gate(on_missing="skip"), empty
    ).status == "skip"


def test_nan_metric_always_fails():
    nan_record = _bench_record(float("nan"))
    result = evaluate_gate(_floor_gate(on_missing="skip"), nan_record)
    assert result.failed
    assert "NaN" in result.reason


def test_evaluate_gates_drops_other_kind_gates():
    results = evaluate_gates(_bench_record(6.0))
    assert results
    assert all(r.gate.startswith("bench.") for r in results)


def test_render_gate_results_summarizes_verdict():
    record = _bench_record(1.0)
    text = render_gate_results(record, evaluate_gates(record))
    assert "bench.raycast-speedup-floor" in text
    assert "-> FAIL" in text


# == verdicts on the committed records ==========================================
#
# Each committed BENCH_*.json record, as committed and perturbed to trip
# each individual check, with the exact set of gates the shipped policy
# fails on it.  The retired ad-hoc floor checkers gave the same
# pass/fail verdict on each of these cases.

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

COMMITTED = {
    "bench": "BENCH_hotpaths.json",
    "suite": "BENCH_suite.json",
    "rt": "BENCH_rt.json",
}


def _set(name, value):
    """Perturbation: overwrite (or add) one measurement value."""
    def mutate(record):
        old = record.measurements.get(name, Measurement(0.0, "ratio"))
        record.measurements[name] = Measurement(
            value, old.unit, old.higher_is_better
        )
    return mutate


def _drop(*prefixes):
    """Perturbation: delete every measurement under the given prefixes."""
    def mutate(record):
        for name in list(record.measurements):
            if name.startswith(prefixes):
                del record.measurements[name]
    return mutate


def _both(*mutations):
    def mutate(record):
        for mutation in mutations:
            mutation(record)
    return mutate


def _smoke(record):
    record.tags.append("smoke")


_SPEEDUPS_50 = _both(*(
    _set(f"{phase}.speedup", 50.0)
    for phase in ("raycast", "collision", "nn", "search_dijkstra",
                  "search_pp3d")
))
_GOOD_PARALLEL = _set("suite.parallel_speedup", 2.5)
_MISSES = _set("unloaded.miss_rate", 0.2)
_DEGRADES_NOT = _set("degradation.p99_ratio", 0.98)

#: (kind, label, perturbation, failing gates).
VERDICTS = [
    ("bench", "as-committed", None, []),
    ("bench", "raycast-below-floor", _set("raycast.speedup", 4.9),
     ["bench.raycast-speedup-floor"]),
    ("bench", "collision-below-floor", _set("collision.speedup", 1.0),
     ["bench.collision-speedup-floor"]),
    ("bench", "nn-missing", _drop("nn."), ["bench.nn-speedup-floor"]),
    ("bench", "all-comfortably-above", _SPEEDUPS_50, []),
    ("suite", "as-committed", None, []),
    ("suite", "speedup-above-floor", _GOOD_PARALLEL, []),
    ("suite", "determinism-mismatch",
     _both(_GOOD_PARALLEL, _set("determinism.match", 0.0)),
     ["suite.determinism"]),
    ("suite", "failed-task",
     _both(_GOOD_PARALLEL, _set("suite.failures", 1.0)),
     ["suite.no-failed-tasks"]),
    ("suite", "cache-hit-below-floor",
     _both(_GOOD_PARALLEL, _set("cache.hit_speedup", 1.0)),
     ["suite.cache-hit-speedup-floor"]),
    ("suite", "serial-only-no-floor",
     _drop("suite.parallel_speedup", "suite.serial_wall_s",
           "determinism."),
     []),
    ("rt", "as-committed", None, []),
    ("rt", "miss-rate-above-ceiling", _MISSES, ["rt.miss-rate-ceiling"]),
    ("rt", "non-degrading-interference", _DEGRADES_NOT,
     ["rt.interference-degrades"]),
    ("rt", "unloaded-only", _drop("degradation."), []),
    ("rt", "smoke-exempt", _both(_smoke, _MISSES, _DEGRADES_NOT), []),
]


@pytest.mark.parametrize("kind", ["bench", "suite", "rt"])
def test_gates_reproduce_legacy_verdicts(kind):
    """Acceptance: per case, the shipped policy fails exactly the gates
    the table names on the committed record of ``kind``."""
    path = os.path.join(REPO, COMMITTED[kind])
    for case_kind, label, mutate, want in VERDICTS:
        if case_kind != kind:
            continue
        record = ResultStore().load(path)
        assert record.kind == kind
        if mutate is not None:
            mutate(record)
        failed = [r.gate for r in gate_failures(evaluate_gates(record))]
        assert failed == want, f"{kind}/{label}"
