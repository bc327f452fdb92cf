"""Producer payloads -> :class:`~repro.results.record.RunRecord`.

One adapter per producer: the ``rtrbench`` commands convert their
freshly computed nested payload into a record, attaching the live
environment fingerprint; the nested payload itself rides along as the
record's ``detail``.

The measurement names minted here are the layer's public contract: gate
declarations and ``rtrbench compare`` address metrics by these dotted
names, so renames are schema changes and belong with a
``RECORD_SCHEMA_VERSION`` bump.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Mapping, Optional

from repro.results.record import (
    EnvironmentFingerprint,
    Measurement,
    RunRecord,
)


def _jsonable(payload: Any) -> Dict[str, Any]:
    """Round-trip a payload through JSON so ``detail`` always serializes."""
    return json.loads(json.dumps(payload, default=repr))


def _seconds(value: float) -> Measurement:
    return Measurement(float(value), unit="s", higher_is_better=False)


def _ratio(value: float, higher_is_better: Optional[bool] = True) -> Measurement:
    return Measurement(
        float(value), unit="ratio", higher_is_better=higher_is_better
    )


def _count(value: float, higher_is_better: Optional[bool] = None) -> Measurement:
    return Measurement(
        float(value), unit="count", higher_is_better=higher_is_better
    )


def _flag(value: bool) -> Measurement:
    """A pass/fail bit as 1.0/0.0 (gateable with ``== 1``)."""
    return Measurement(1.0 if value else 0.0, unit="bool", higher_is_better=True)


def _env(env: Optional[EnvironmentFingerprint]) -> EnvironmentFingerprint:
    return EnvironmentFingerprint.unknown() if env is None else env


# -- bench ---------------------------------------------------------------------

#: Unit assignment for the per-phase bench metric keys.
_BENCH_FIELD_UNITS = {
    "reference_s": _seconds,
    "vectorized_s": _seconds,
    "reference_cpu_s": _seconds,
    "vectorized_cpu_s": _seconds,
}


def record_from_bench(
    results: Mapping[str, Mapping[str, float]],
    smoke: bool = False,
    seed: Optional[int] = None,
    jobs: Optional[int] = None,
    env: Optional[EnvironmentFingerprint] = None,
) -> RunRecord:
    """Record for a hot-path bench run (``phase -> metrics`` mapping).

    Mints ``<phase>.speedup`` / ``<phase>.reference_s`` /
    ``<phase>.vectorized_s`` / ``<phase>.ops`` measurements per phase,
    and ``<phase>.slices`` where the phase reports one (``raycast``).
    """
    measurements: Dict[str, Measurement] = {}
    for phase, row in results.items():
        for key, value in row.items():
            if key == "speedup":
                measurements[f"{phase}.speedup"] = _ratio(value)
            elif key in ("ops", "slices"):
                measurements[f"{phase}.{key}"] = _count(value)
            elif key in _BENCH_FIELD_UNITS:
                measurements[f"{phase}.{key}"] = _BENCH_FIELD_UNITS[key](value)
    provenance: Dict[str, Any] = {"phases": sorted(results), "smoke": smoke}
    if seed is not None:
        provenance["seed"] = seed
    if jobs is not None:
        provenance["jobs"] = jobs
    return RunRecord(
        kind="bench",
        environment=_env(env),
        provenance=provenance,
        tags=["smoke"] if smoke else [],
        measurements=measurements,
        detail=_jsonable(dict(results)),
    )


# -- suite ---------------------------------------------------------------------


def record_from_suite(
    report: Mapping[str, Any],
    env: Optional[EnvironmentFingerprint] = None,
) -> RunRecord:
    """Record for a ``run_suite`` report (``rtrbench suite``)."""
    suite = report["suite"]
    measurements: Dict[str, Measurement] = {
        "suite.task_count": _count(suite["task_count"]),
        "suite.failures": _count(suite["failures"], higher_is_better=False),
        "suite.wall_s": _seconds(suite["wall_s"]),
    }
    if suite.get("serial_wall_s") is not None:
        measurements["suite.serial_wall_s"] = _seconds(suite["serial_wall_s"])
    if suite.get("parallel_speedup") is not None:
        measurements["suite.parallel_speedup"] = _ratio(
            suite["parallel_speedup"]
        )
    if suite.get("dispatch_overhead_s") is not None:
        measurements["suite.dispatch_overhead_s"] = _seconds(
            suite["dispatch_overhead_s"]
        )
    if suite.get("dispatch_overhead_share") is not None:
        measurements["suite.dispatch_overhead_share"] = _ratio(
            suite["dispatch_overhead_share"], higher_is_better=False
        )
    if suite.get("worker_utilization") is not None:
        measurements["suite.worker_utilization"] = _ratio(
            suite["worker_utilization"]
        )
    determinism = report.get("determinism", {})
    if determinism.get("checked"):
        measurements["determinism.match"] = _flag(
            bool(determinism.get("matches"))
        )
    probe = report.get("cache", {}).get("probe", {})
    if "hit_speedup" in probe:
        measurements["cache.hit_speedup"] = _ratio(probe["hit_speedup"])
    if "cold_build_s" in probe:
        measurements["cache.cold_build_s"] = _seconds(probe["cold_build_s"])
    if "warm_hit_s" in probe:
        measurements["cache.warm_hit_s"] = _seconds(probe["warm_hit_s"])
    for row in report.get("tasks", []):
        if row.get("ok"):
            name = row["task"]
            measurements[f"tasks.{name}.wall_s"] = _seconds(row["wall_s"])
            measurements[f"tasks.{name}.roi_s"] = _seconds(
                row.get("roi_s", 0.0)
            )
            if row.get("exec_s") is not None:
                measurements[f"tasks.{name}.exec_s"] = _seconds(
                    row["exec_s"]
                )
            if row.get("queue_wait_s") is not None:
                measurements[f"tasks.{name}.queue_wait_s"] = _seconds(
                    row["queue_wait_s"]
                )
    environment = _env(env)
    tags = ["smoke"] if suite.get("smoke") else []
    # A box with one usable CPU cannot express parallel speedup or keep
    # N workers busy; the tag lets timing-floor gates skip with an
    # explicit reason instead of failing on hardware limits.
    if environment.cpu_count == 1:
        tags.append("single-core")
    return RunRecord(
        kind="suite",
        environment=environment,
        provenance={
            "jobs": suite.get("jobs"),
            "seed": suite.get("seed"),
            "smoke": suite.get("smoke", False),
            "filter": suite.get("filter"),
            "baseline_source": suite.get("baseline_source"),
        },
        tags=tags,
        measurements=measurements,
        detail=_jsonable(dict(report)),
    )


# -- rt ------------------------------------------------------------------------


def record_from_rt(
    report: Mapping[str, Any],
    env: Optional[EnvironmentFingerprint] = None,
) -> RunRecord:
    """Record for a ``run_rt`` report (``rtrbench rt``)."""
    rt = report["rt"]
    measurements: Dict[str, Measurement] = {
        "rt.period_ms": Measurement(float(rt["period_ms"]), unit="ms"),
        "rt.deadline_ms": Measurement(float(rt["deadline_ms"]), unit="ms"),
        "slo.pass": _flag(report["slo"]["verdict"] == "pass"),
    }
    # Step-granularity runs additionally expose the per-iteration SLO
    # numbers under stable ``rt.step.*`` names for the rt.step-* gates.
    if rt.get("granularity") == "step":
        unloaded = report.get("conditions", {}).get("unloaded", {})
        step_response = unloaded.get("response_ms", {})
        if "p99" in step_response:
            measurements["rt.step.p99_ms"] = Measurement(
                float(step_response["p99"]),
                unit="ms",
                higher_is_better=False,
            )
            deadline_ms = float(rt["deadline_ms"])
            if deadline_ms > 0:
                measurements["rt.step.p99_deadline_ratio"] = _ratio(
                    float(step_response["p99"]) / deadline_ms,
                    higher_is_better=False,
                )
        if "miss_rate" in unloaded:
            measurements["rt.step.miss_rate"] = _ratio(
                unloaded["miss_rate"], higher_is_better=False
            )
    for condition, summary in report.get("conditions", {}).items():
        response = summary.get("response_ms", {})
        jitter = summary.get("jitter_ms", {})
        measurements[f"{condition}.miss_rate"] = _ratio(
            summary["miss_rate"], higher_is_better=False
        )
        for quantile in ("p50", "p99", "max"):
            if quantile in response:
                measurements[f"{condition}.response_{quantile}_ms"] = (
                    Measurement(
                        float(response[quantile]),
                        unit="ms",
                        higher_is_better=False,
                    )
                )
        if "p99" in jitter:
            measurements[f"{condition}.jitter_p99_ms"] = Measurement(
                float(jitter["p99"]), unit="ms", higher_is_better=False
            )
        if "busy_s" in summary:
            measurements[f"{condition}.busy_s"] = _seconds(summary["busy_s"])
    degradation = report.get("degradation")
    if degradation is not None:
        measurements["degradation.p50_ratio"] = _ratio(
            degradation["p50_ratio"], higher_is_better=None
        )
        measurements["degradation.p99_ratio"] = _ratio(
            degradation["p99_ratio"], higher_is_better=None
        )
        measurements["degradation.miss_rate_delta"] = Measurement(
            float(degradation["miss_rate_delta"]),
            unit="ratio",
            higher_is_better=False,
        )
    return RunRecord(
        kind="rt",
        environment=_env(env),
        provenance={
            "kernel": rt.get("kernel"),
            "stage": rt.get("stage"),
            "granularity": rt.get("granularity", "run"),
            "jobs": rt.get("jobs"),
            "warmup": rt.get("warmup"),
            "overrun": rt.get("overrun"),
            "smoke": rt.get("smoke", False),
            "calibrated": rt.get("calibrated", False),
            "antagonists": rt.get("antagonists", 0),
            "antagonist_kind": rt.get("antagonist_kind"),
            "config": rt.get("config"),
        },
        tags=["smoke"] if rt.get("smoke") else [],
        measurements=measurements,
        detail=_jsonable(dict(report)),
    )

