"""Declarative regression gates: floors and invariants as data, not code.

Before this layer the suite had three hand-rolled checkers — bench
speedup floors, suite determinism/speedup floors, rt SLO floors — each a
bespoke function over its own report layout.  A :class:`Gate` re-expresses
one such check as a datum: *which* records it applies to (``kind`` +
``skip_tags``), *which* metric it reads, and the fixed bound it must
meet (``op`` + ``threshold``).  A gate judges one record on its own,
never against another stored record.  The engine (:func:`evaluate_gates`)
is the single generic interpreter and the only pass/fail judge: a new
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
from dataclasses import MISSING, dataclass, fields
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional

from repro.results.record import RunRecord

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
    """One declarative check: ``record.metric(metric) <op> threshold``."""

    name: str
    kind: str
    metric: str
    threshold: float
    op: str = ">="
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
        if isinstance(self.threshold, bool) or not isinstance(
            self.threshold, (int, float)
        ):
            raise ValueError(
                f"gate {self.name!r}: threshold must be a number, "
                f"got {self.threshold!r}"
            )

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Gate":
        """Parse one gate declaration (e.g. an entry of a gates file).

        A key the declaration form does not have is an error, not a
        silent default: a misspelt ``skip_tags`` would otherwise judge
        records the gate was meant to skip.
        """
        known = [f.name for f in fields(cls)]
        unknown = sorted(set(payload) - set(known))
        if unknown:
            raise ValueError(
                f"gate {payload.get('name')!r}: unknown key(s) "
                f"{', '.join(unknown)} (have: {', '.join(known)})"
            )
        missing = [
            f.name for f in fields(cls)
            if f.default is MISSING and f.name not in payload
        ]
        if missing:
            raise ValueError(
                f"gate {payload.get('name')!r}: missing key(s) "
                f"{', '.join(missing)}"
            )
        return cls(
            **{**payload, "skip_tags": tuple(payload.get("skip_tags", ()))}
        )

    def to_dict(self) -> Dict[str, Any]:
        """Serialize back to the declaration form ``from_dict`` accepts."""
        payload: Dict[str, Any] = {
            "name": self.name,
            "kind": self.kind,
            "metric": self.metric,
            "op": self.op,
            "threshold": self.threshold,
            "on_missing": self.on_missing,
        }
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
#: old smoke exemptions expressed as ``skip_tags`` — the only smoke
#: exemption: ``rtrbench bench/suite/rt --smoke`` enforce these gates on
#: their records like any other run.  The bench floors also skip records
#: tagged ``partial`` (``bench --phases`` runs of only some phases).
#: Structural suite gates (failed tasks, determinism) stay active even
#: on smoke records: they are machine-independent, so CI smoke runs can
#: enforce them.
DEFAULT_GATES: List[Dict[str, Any]] = [
    # bench: vectorized-over-reference speedup floors (PR 1).
    {"name": "bench.raycast-speedup-floor", "kind": "bench",
     "metric": "raycast.speedup", "op": ">=", "threshold": 5.0,
     "on_missing": "fail", "skip_tags": ["smoke", "partial"]},
    {"name": "bench.collision-speedup-floor", "kind": "bench",
     "metric": "collision.speedup", "op": ">=", "threshold": 3.0,
     "on_missing": "fail", "skip_tags": ["smoke", "partial"]},
    {"name": "bench.nn-speedup-floor", "kind": "bench",
     "metric": "nn.speedup", "op": ">=", "threshold": 2.0,
     "on_missing": "fail", "skip_tags": ["smoke", "partial"]},
    # Flat-array search core floors (PR 7).  ``on_missing: skip`` (not
    # fail): bench records stored before the search core existed carry
    # no search_* metrics and keep the verdicts they had.
    {"name": "bench.search-dijkstra-speedup-floor", "kind": "bench",
     "metric": "search_dijkstra.speedup", "op": ">=", "threshold": 5.0,
     "on_missing": "skip", "skip_tags": ["smoke", "partial"]},
    {"name": "bench.search-pp3d-speedup-floor", "kind": "bench",
     "metric": "search_pp3d.speedup", "op": ">=", "threshold": 2.0,
     "on_missing": "skip", "skip_tags": ["smoke", "partial"]},
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
    # rt: the deadline-miss budget (at most 10% of unloaded jobs, in
    # either granularity; a record without the unloaded miss rate fails)
    # and honest interference degradation.
    {"name": "rt.miss-rate-ceiling", "kind": "rt",
     "metric": "unloaded.miss_rate", "op": "<=", "threshold": 0.1,
     "on_missing": "fail", "skip_tags": ["smoke"]},
    {"name": "rt.interference-degrades", "kind": "rt",
     "metric": "degradation.p99_ratio", "op": ">", "threshold": 1.0,
     "on_missing": "skip", "skip_tags": ["smoke"]},
    # rt, step granularity: per-iteration p99 against the deadline.
    # ``on_missing: skip`` keeps run-granularity records (which never
    # emit rt.step.*) out of it.
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


def evaluate_gate(gate: Gate, record: RunRecord) -> GateResult:
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
        status = "fail" if gate.on_missing == "fail" else "skip"
        return GateResult(
            gate.name, gate.metric, status, None,
            f"metric {gate.metric!r} absent from record",
        )
    if math.isnan(value):
        # NaN never satisfies a bound; surface it explicitly instead of
        # relying on comparison semantics.
        return GateResult(
            gate.name, gate.metric, "fail", value,
            f"metric {gate.metric!r} is NaN",
        )
    bound = gate.threshold
    if OPS[gate.op](value, bound):
        return GateResult(
            gate.name, gate.metric, "pass", value,
            f"{value:.6g} {gate.op} {bound:.6g}",
        )
    return GateResult(
        gate.name, gate.metric, "fail", value,
        f"{gate.metric} = {value:.6g} violates {gate.op} {bound:.6g}",
    )


def evaluate_gates(
    record: RunRecord, gates: Optional[Iterable[Gate]] = None
) -> List[GateResult]:
    """Judge a record against a gate set (default: the shipped policy).

    Gates declared for other record kinds are dropped from the result
    (rather than reported as skips) so one shared policy list can cover
    every producer without cluttering each verdict table.
    """
    if gates is None:
        gates = default_gates()
    return [
        evaluate_gate(gate, record)
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
