"""Declarative regression gates: floors and invariants as data, not code.

Before this layer the suite had three hand-rolled checkers — bench
speedup floors, suite determinism/speedup floors, rt SLO floors — each a
bespoke function over its own report layout.  A :class:`Gate` re-expresses
one such check as a datum: *which* records it applies to (``kind`` +
``skip_tags``), *which* metric it reads, and *what* must hold — either a
fixed threshold (``op`` + ``threshold``) or a bounded regression against
a stored baseline (``baseline`` + ``max_regression``).  The engine
(:func:`evaluate_gates`) is the single generic interpreter, so a new
subsystem adds gates by appending dicts, not by writing another checker.

:data:`DEFAULT_GATES` carries the suite's shipped policy, the successor
of the three retired ad-hoc checkers (``tests/test_results_gates.py``
pins its per-gate verdicts on the committed ``BENCH_*.json`` records and
on perturbations of them that trip each check).
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional

from repro.results.record import RunRecord
from repro.results.store import ResultStore

#: Comparators a gate may name.  ``==`` / ``!=`` are exact — meant for
#: pass-bits and counts, not timings.
OPS: Dict[str, Callable[[float, float], bool]] = {
    ">=": operator.ge,
    ">": operator.gt,
    "<=": operator.le,
    "<": operator.lt,
    "==": operator.eq,
    "!=": operator.ne,
}

#: Policies for a gate whose metric is absent from the record.
ON_MISSING = ("fail", "skip")


@dataclass(frozen=True)
class Gate:
    """One declarative check against a record's metric.

    Exactly one of ``threshold`` (fixed bound) or ``baseline`` (a store
    reference such as ``"latest"`` or a run id, compared via the
    measurement's ``higher_is_better`` direction with ``max_regression``
    slack) must be set.
    """

    name: str
    kind: str
    metric: str
    op: str = ">="
    threshold: Optional[float] = None
    baseline: Optional[str] = None
    max_regression: float = 0.0
    on_missing: str = "fail"
    skip_tags: tuple = ()

    def __post_init__(self) -> None:
        if self.op not in OPS:
            raise ValueError(
                f"gate {self.name!r}: unknown op {self.op!r} "
                f"(have: {', '.join(OPS)})"
            )
        if self.on_missing not in ON_MISSING:
            raise ValueError(
                f"gate {self.name!r}: on_missing must be one of "
                f"{ON_MISSING}, got {self.on_missing!r}"
            )
        if (self.threshold is None) == (self.baseline is None):
            raise ValueError(
                f"gate {self.name!r}: exactly one of threshold/baseline "
                "must be set"
            )

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Gate":
        """Parse one gate declaration (e.g. an entry of a gates file)."""
        return cls(
            name=payload["name"],
            kind=payload["kind"],
            metric=payload["metric"],
            op=payload.get("op", ">="),
            threshold=payload.get("threshold"),
            baseline=payload.get("baseline"),
            max_regression=float(payload.get("max_regression", 0.0)),
            on_missing=payload.get("on_missing", "fail"),
            skip_tags=tuple(payload.get("skip_tags", ())),
        )

    def to_dict(self) -> Dict[str, Any]:
        """Serialize back to the declaration form ``from_dict`` accepts."""
        payload: Dict[str, Any] = {
            "name": self.name,
            "kind": self.kind,
            "metric": self.metric,
            "op": self.op,
            "on_missing": self.on_missing,
        }
        if self.threshold is not None:
            payload["threshold"] = self.threshold
        if self.baseline is not None:
            payload["baseline"] = self.baseline
            payload["max_regression"] = self.max_regression
        if self.skip_tags:
            payload["skip_tags"] = list(self.skip_tags)
        return payload


@dataclass
class GateResult:
    """Outcome of one gate against one record."""

    gate: str
    metric: str
    status: str  # "pass" | "fail" | "skip"
    value: Optional[float] = None
    reason: str = ""

    @property
    def failed(self) -> bool:
        """Whether this gate ruled FAIL."""
        return self.status == "fail"

    @property
    def passed(self) -> bool:
        """Whether this gate ruled PASS (skips are neither)."""
        return self.status == "pass"


#: The shipped gate policy.  These declarations are the successors of
#: ``harness.bench.check_floors`` (speedup floors), ``harness.suite.
#: check_suite_floors`` (failed tasks, determinism, parallel/cache
#: floors), and ``rt.run.check_rt_floors`` (SLO + interference), with the
#: old smoke exemptions expressed as ``skip_tags``.  Structural suite
#: gates (failed tasks, determinism) stay active even on smoke records:
#: they are machine-independent, so CI smoke runs can enforce them.
DEFAULT_GATES: List[Dict[str, Any]] = [
    # bench: vectorized-over-reference speedup floors (PR 1).
    {"name": "bench.raycast-speedup-floor", "kind": "bench",
     "metric": "raycast.speedup", "op": ">=", "threshold": 5.0,
     "on_missing": "fail", "skip_tags": ["smoke"]},
    {"name": "bench.collision-speedup-floor", "kind": "bench",
     "metric": "collision.speedup", "op": ">=", "threshold": 3.0,
     "on_missing": "fail", "skip_tags": ["smoke"]},
    {"name": "bench.nn-speedup-floor", "kind": "bench",
     "metric": "nn.speedup", "op": ">=", "threshold": 2.0,
     "on_missing": "fail", "skip_tags": ["smoke"]},
    # Flat-array search core floors (PR 7).  ``on_missing: skip`` (not
    # fail): bench records stored before the search core existed carry
    # no search_* metrics and keep the verdicts they had.
    {"name": "bench.search-dijkstra-speedup-floor", "kind": "bench",
     "metric": "search_dijkstra.speedup", "op": ">=", "threshold": 5.0,
     "on_missing": "skip", "skip_tags": ["smoke"]},
    {"name": "bench.search-pp3d-speedup-floor", "kind": "bench",
     "metric": "search_pp3d.speedup", "op": ">=", "threshold": 2.0,
     "on_missing": "skip", "skip_tags": ["smoke"]},
    # suite: structural invariants (active in smoke) + timing floors.
    {"name": "suite.no-failed-tasks", "kind": "suite",
     "metric": "suite.failures", "op": "==", "threshold": 0.0,
     "on_missing": "fail"},
    {"name": "suite.determinism", "kind": "suite",
     "metric": "determinism.match", "op": "==", "threshold": 1.0,
     "on_missing": "skip"},
    # Parallel-executor floors (PR 6): speedup, worker utilization, and
    # dispatch overhead.  All skip on single-core hardware — one usable
    # CPU cannot express parallelism — and in smoke mode (tiny tasks,
    # overhead-dominated); the dispatch-overhead ceiling is structural
    # enough to stay active wherever a pool actually ran.
    {"name": "suite.parallel-speedup-floor", "kind": "suite",
     "metric": "suite.parallel_speedup", "op": ">=", "threshold": 2.0,
     "on_missing": "skip", "skip_tags": ["smoke", "single-core"]},
    {"name": "suite.worker-utilization-floor", "kind": "suite",
     "metric": "suite.worker_utilization", "op": ">=", "threshold": 0.4,
     "on_missing": "skip", "skip_tags": ["smoke", "single-core"]},
    {"name": "suite.dispatch-overhead-ceiling", "kind": "suite",
     "metric": "suite.dispatch_overhead_share", "op": "<=",
     "threshold": 0.15, "on_missing": "skip", "skip_tags": ["smoke"]},
    {"name": "suite.cache-hit-speedup-floor", "kind": "suite",
     "metric": "cache.hit_speedup", "op": ">=", "threshold": 5.0,
     "on_missing": "fail", "skip_tags": ["smoke"]},
    # rt: the SLO verdict and honest interference degradation.
    {"name": "rt.slo-pass", "kind": "rt",
     "metric": "slo.pass", "op": "==", "threshold": 1.0,
     "on_missing": "fail", "skip_tags": ["smoke"]},
    {"name": "rt.interference-degrades", "kind": "rt",
     "metric": "degradation.p99_ratio", "op": ">", "threshold": 1.0,
     "on_missing": "skip", "skip_tags": ["smoke"]},
    # rt, step granularity: per-iteration SLO numbers.  ``on_missing:
    # skip`` keeps run-granularity records (which never emit rt.step.*)
    # judged exactly as before.
    {"name": "rt.step-miss-rate-ceiling", "kind": "rt",
     "metric": "rt.step.miss_rate", "op": "<=", "threshold": 0.1,
     "on_missing": "skip", "skip_tags": ["smoke"]},
    {"name": "rt.step-p99-deadline-ceiling", "kind": "rt",
     "metric": "rt.step.p99_deadline_ratio", "op": "<=", "threshold": 1.0,
     "on_missing": "skip", "skip_tags": ["smoke"]},
]


def gates_from_dicts(payloads: Iterable[Mapping[str, Any]]) -> List[Gate]:
    """Parse a list of gate declarations (e.g. loaded from JSON)."""
    return [Gate.from_dict(p) for p in payloads]


def gates_from_file(path: str) -> List[Gate]:
    """Load gate declarations from a JSON file (a list of gate dicts)."""
    with open(path) as fh:
        payloads = json.load(fh)
    if not isinstance(payloads, list):
        raise ValueError(f"{path}: expected a JSON list of gate objects")
    return gates_from_dicts(payloads)


def default_gates() -> List[Gate]:
    """The shipped policy, parsed."""
    return gates_from_dicts(DEFAULT_GATES)


def _evaluate_threshold(gate: Gate, value: float) -> GateResult:
    bound = gate.threshold
    assert bound is not None
    if OPS[gate.op](value, bound):
        return GateResult(
            gate.name, gate.metric, "pass", value,
            f"{value:.6g} {gate.op} {bound:.6g}",
        )
    return GateResult(
        gate.name, gate.metric, "fail", value,
        f"{gate.metric} = {value:.6g} violates {gate.op} {bound:.6g}",
    )


def _evaluate_baseline(
    gate: Gate, record: RunRecord, value: float, store: Optional[ResultStore]
) -> GateResult:
    if store is None:
        return _missing(
            gate, value, "baseline gate evaluated without a result store"
        )
    assert gate.baseline is not None
    ref = (
        f"{record.kind}@{gate.baseline}"
        if "@" not in gate.baseline and not gate.baseline.count("/")
        else gate.baseline
    )
    try:
        baseline = store.load(ref)
    except (OSError, ValueError) as exc:
        return _missing(gate, value, f"no baseline record ({exc})")
    if baseline.run_id == record.run_id:
        history = store.history(record.kind)
        if len(history) < 2:
            return _missing(
                gate, value, "baseline is the record under test"
            )
        baseline = store._load_file(history[-2])
    base_value = baseline.metric(gate.metric)
    if base_value is None or math.isnan(base_value):
        return _missing(
            gate, value,
            f"baseline {baseline.run_id} lacks metric {gate.metric!r}",
        )
    measurement = record.measurements[gate.metric]
    higher = measurement.higher_is_better
    if higher is None:
        return _missing(
            gate, value,
            f"{gate.metric!r} is direction-free; baseline gates need "
            "higher_is_better",
        )
    slack = abs(base_value) * gate.max_regression
    bound = base_value - slack if higher else base_value + slack
    ok = value >= bound if higher else value <= bound
    verb = ">=" if higher else "<="
    detail = (
        f"{value:.6g} {verb} {bound:.6g} "
        f"(baseline {baseline.run_id}: {base_value:.6g}, "
        f"slack {gate.max_regression:.1%})"
    )
    if ok:
        return GateResult(gate.name, gate.metric, "pass", value, detail)
    return GateResult(
        gate.name, gate.metric, "fail", value,
        f"{gate.metric} regressed vs baseline: {detail}",
    )


def _missing(gate: Gate, value: Optional[float], why: str) -> GateResult:
    if gate.on_missing == "fail":
        return GateResult(gate.name, gate.metric, "fail", value, why)
    return GateResult(gate.name, gate.metric, "skip", value, why)


def evaluate_gate(
    gate: Gate, record: RunRecord, store: Optional[ResultStore] = None
) -> GateResult:
    """Judge one gate against one record (kind/tag filtering included)."""
    if gate.kind != record.kind:
        return GateResult(
            gate.name, gate.metric, "skip", None,
            f"gate targets kind {gate.kind!r}, record is {record.kind!r}",
        )
    for tag in gate.skip_tags:
        if record.has_tag(tag):
            return GateResult(
                gate.name, gate.metric, "skip", None,
                f"record tagged {tag!r}",
            )
    value = record.metric(gate.metric)
    if value is None:
        return _missing(
            gate, None, f"metric {gate.metric!r} absent from record"
        )
    if math.isnan(value):
        # NaN never satisfies a bound; surface it explicitly instead of
        # relying on comparison semantics.
        return GateResult(
            gate.name, gate.metric, "fail", value,
            f"metric {gate.metric!r} is NaN",
        )
    if gate.threshold is not None:
        return _evaluate_threshold(gate, value)
    return _evaluate_baseline(gate, record, value, store)


def evaluate_gates(
    record: RunRecord,
    gates: Optional[Iterable[Gate]] = None,
    store: Optional[ResultStore] = None,
) -> List[GateResult]:
    """Judge a record against a gate set (default: the shipped policy).

    Gates declared for other record kinds are dropped from the result
    (rather than reported as skips) so one shared policy list can cover
    every producer without cluttering each verdict table.
    """
    if gates is None:
        gates = default_gates()
    return [
        evaluate_gate(gate, record, store)
        for gate in gates
        if gate.kind == record.kind
    ]


def gate_failures(results: Iterable[GateResult]) -> List[GateResult]:
    """The failing subset of a gate evaluation (empty = verdict PASS)."""
    return [r for r in results if r.failed]


def render_gate_results(
    record: RunRecord, results: Iterable[GateResult]
) -> str:
    """Text verdict table for one record's gate evaluation."""
    results = list(results)
    lines = [
        f"gate {record.kind}@{record.run_id} "
        f"(schema v{record.schema_version}"
        + (f", tags: {', '.join(record.tags)}" if record.tags else "")
        + ")"
    ]
    width = max([len(r.gate) for r in results] or [4])
    for r in results:
        lines.append(f"  {r.gate:<{width}}  {r.status.upper():<4}  {r.reason}")
    failures = gate_failures(results)
    applicable = [r for r in results if r.status != "skip"]
    lines.append(
        f"  -> {'FAIL' if failures else 'PASS'} "
        f"({len(applicable)} applicable, {len(failures)} failed, "
        f"{len(results) - len(applicable)} skipped)"
    )
    return "\n".join(lines)
