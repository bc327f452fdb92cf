"""Unified run-record pipeline: typed results, versioned storage, gates.

Every result producer in the suite — the hot-path perf bench, the
parallel suite executor, the periodic real-time runner, the experiment
registry — emits one :class:`~repro.results.record.RunRecord`: a typed,
schema-versioned document holding flat named measurements, kernel/config
provenance, and an environment fingerprint (interpreter, numpy, CPU
count, git sha, thread-env pinning).  Records are appended to a local
history store (:mod:`repro.results.store`, ``.rtrbench_results/``),
compared across runs and machines (:mod:`repro.results.compare`), and
judged by a *declarative* gate engine (:mod:`repro.results.gates`) that
replaces the three generations of hand-rolled floor checkers the suite
grew before this layer existed.

The layer is self-contained: nothing in here imports from
``repro.harness`` or ``repro.rt``, so producers depend on results and
never the other way around.
"""

from repro.results.adapters import (
    record_from_bench,
    record_from_experiment,
    record_from_rt,
    record_from_suite,
)
from repro.results.compare import MetricDelta, RecordComparison, compare_records
from repro.results.gates import (
    DEFAULT_GATES,
    Gate,
    GateResult,
    default_gates,
    evaluate_gate,
    evaluate_gates,
    gates_from_dicts,
    render_gate_results,
)
from repro.results.record import (
    RECORD_SCHEMA_VERSION,
    THREAD_ENV_VARS,
    EnvironmentFingerprint,
    Measurement,
    RunRecord,
    capture_environment,
    pinned_thread_env,
)
from repro.results.store import ResultStore

__all__ = [
    "RECORD_SCHEMA_VERSION",
    "THREAD_ENV_VARS",
    "DEFAULT_GATES",
    "EnvironmentFingerprint",
    "Gate",
    "GateResult",
    "Measurement",
    "MetricDelta",
    "RecordComparison",
    "ResultStore",
    "RunRecord",
    "capture_environment",
    "compare_records",
    "default_gates",
    "evaluate_gate",
    "evaluate_gates",
    "gates_from_dicts",
    "pinned_thread_env",
    "record_from_bench",
    "record_from_experiment",
    "record_from_rt",
    "record_from_suite",
    "render_gate_results",
]
