"""Typed run records: the one result schema every producer emits.

A :class:`RunRecord` is the suite's unit of reporting: a flat mapping of
named :class:`Measurement` values plus the context needed to interpret
them later — which producer made it (``kind``), with what configuration
(``provenance``), on what machine (``environment``), and under which
schema generation (``schema_version``).  The measurement namespace is
flat and dotted (``raycast.speedup``, ``unloaded.response_p99_ms``) so
the gate engine and the comparator can address metrics as data without
knowing any producer's nested report layout; the producer's full nested
payload rides along untouched in ``detail`` for the human renderers.

The document is schema generation 2, the only one
:meth:`RunRecord.from_dict` reads: the untyped report layouts that came
before it (generation 0) and any other ``schema_version`` are rejected.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import platform
import subprocess
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Iterator, List, Mapping, Optional

#: Current generation of the RunRecord document.
RECORD_SCHEMA_VERSION = 2

#: Thread-count environment variables that change numpy/BLAS timing.
#: Pinning them (see :func:`pinned_thread_env`) keeps hot-path numbers
#: stable run to run; recording them makes the fingerprint explain why
#: two machines' timings differ when they weren't pinned.
THREAD_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


@contextlib.contextmanager
def pinned_thread_env(threads: int = 1) -> Iterator[Dict[str, str]]:
    """Pin every :data:`THREAD_ENV_VARS` entry for the enclosed block.

    Variables the user already set are respected (their value is what
    gets recorded); unset ones are pinned to ``threads`` and restored to
    unset on exit.  Yields the effective mapping so callers can stash it
    in the environment fingerprint.  Pinning is best-effort — BLAS
    libraries read some of these at import time — which is exactly why
    the *observed* values are recorded rather than assumed.
    """
    pinned: Dict[str, Optional[str]] = {}
    effective: Dict[str, str] = {}
    try:
        for var in THREAD_ENV_VARS:
            if var in os.environ:
                effective[var] = os.environ[var]
            else:
                pinned[var] = None
                os.environ[var] = str(threads)
                effective[var] = str(threads)
        yield effective
    finally:
        for var in pinned:
            os.environ.pop(var, None)


def _git(*args: str) -> Optional[str]:
    """Stripped stdout of one git command, or ``None`` if it fails."""
    try:
        out = subprocess.run(
            ["git", *args],
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _git_sha() -> Optional[str]:
    """Current git HEAD sha, or ``None`` outside a repository.

    Suffixed ``-dirty`` when a tracked file differs from HEAD, so a
    record made from uncommitted code does not claim the commit.
    """
    sha = _git("rev-parse", "HEAD")
    if not sha:
        return None
    if _git("status", "--porcelain", "--untracked-files=no"):
        return f"{sha}-dirty"
    return sha


@dataclass
class EnvironmentFingerprint:
    """Where a record was produced: the axes timings vary along."""

    python: str = ""
    numpy: str = ""
    platform: str = ""
    cpu_count: int = 0
    git_sha: Optional[str] = None
    thread_env: Dict[str, str] = field(default_factory=dict)

    def digest(self) -> str:
        """Short stable hash of the fingerprint, for quick comparability."""
        payload = json.dumps(asdict(self), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:12]

    def differences(self, other: "EnvironmentFingerprint") -> List[str]:
        """Names of the fields on which two fingerprints disagree."""
        mine, theirs = asdict(self), asdict(other)
        return sorted(key for key in mine if mine[key] != theirs[key])

    def as_dict(self) -> Dict[str, Any]:
        """Plain-dict form for JSON serialization."""
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "EnvironmentFingerprint":
        """Rebuild a fingerprint from its ``as_dict`` form."""
        return cls(
            python=payload.get("python", ""),
            numpy=payload.get("numpy", ""),
            platform=payload.get("platform", ""),
            cpu_count=int(payload.get("cpu_count", 0) or 0),
            git_sha=payload.get("git_sha"),
            thread_env=dict(payload.get("thread_env", {}) or {}),
        )

    @classmethod
    def unknown(cls) -> "EnvironmentFingerprint":
        """Placeholder for records built without a captured environment."""
        return cls()


def capture_environment(
    thread_env: Optional[Mapping[str, str]] = None,
) -> EnvironmentFingerprint:
    """Fingerprint the current process's environment.

    ``thread_env`` overrides the observed thread variables — pass the
    mapping yielded by :func:`pinned_thread_env` so the fingerprint
    records the values that were actually in force during measurement.
    """
    try:
        import numpy

        numpy_version = numpy.__version__
    except Exception:  # pragma: no cover - numpy is a hard dependency
        numpy_version = ""
    if thread_env is None:
        thread_env = {
            var: os.environ[var]
            for var in THREAD_ENV_VARS
            if var in os.environ
        }
    return EnvironmentFingerprint(
        python=platform.python_version(),
        numpy=numpy_version,
        platform=platform.platform(),
        cpu_count=os.cpu_count() or 0,
        git_sha=_git_sha(),
        thread_env=dict(thread_env),
    )


@dataclass
class Measurement:
    """One named scalar: a timing, a ratio, a count, a pass bit.

    ``higher_is_better`` orients regression detection (``None`` means
    direction-free, e.g. an operation count that should simply match).
    """

    value: float
    unit: str = ""
    higher_is_better: Optional[bool] = None

    def as_dict(self) -> Dict[str, Any]:
        """Plain-dict form for JSON serialization."""
        return {
            "value": self.value,
            "unit": self.unit,
            "higher_is_better": self.higher_is_better,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Measurement":
        """Rebuild a measurement from its ``as_dict`` form."""
        return cls(
            value=float(payload["value"]),
            unit=payload.get("unit", ""),
            higher_is_better=payload.get("higher_is_better"),
        )


@dataclass
class RunRecord:
    """A schema-versioned, self-describing result document."""

    kind: str
    run_id: str = ""
    created_at: str = ""
    schema_version: int = RECORD_SCHEMA_VERSION
    environment: EnvironmentFingerprint = field(
        default_factory=EnvironmentFingerprint.unknown
    )
    provenance: Dict[str, Any] = field(default_factory=dict)
    tags: List[str] = field(default_factory=list)
    measurements: Dict[str, Measurement] = field(default_factory=dict)
    detail: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.created_at:
            self.created_at = time.strftime(
                "%Y-%m-%dT%H:%M:%SZ", time.gmtime()
            )
        if not self.run_id:
            stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
            digest = hashlib.sha256(
                json.dumps(
                    {
                        "kind": self.kind,
                        "measurements": {
                            name: m.value
                            for name, m in self.measurements.items()
                        },
                        "provenance": self.provenance,
                    },
                    sort_keys=True,
                    default=repr,
                ).encode()
            ).hexdigest()[:6]
            self.run_id = f"{stamp}-{digest}"

    # -- metric access ---------------------------------------------------------

    def metric(self, name: str) -> Optional[float]:
        """Value of one measurement, or ``None`` when absent."""
        measurement = self.measurements.get(name)
        return None if measurement is None else measurement.value

    def metric_names(self) -> List[str]:
        """All measurement names, sorted."""
        return sorted(self.measurements)

    def has_tag(self, tag: str) -> bool:
        """Whether the record carries ``tag`` (e.g. ``smoke``)."""
        return tag in self.tags

    # -- serialization ---------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """The canonical JSON document (what the store writes)."""
        return {
            "schema_version": self.schema_version,
            "kind": self.kind,
            "run_id": self.run_id,
            "created_at": self.created_at,
            "environment": self.environment.as_dict(),
            "provenance": self.provenance,
            "tags": list(self.tags),
            "measurements": {
                name: m.as_dict()
                for name, m in sorted(self.measurements.items())
            },
            "detail": self.detail,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "RunRecord":
        """Rebuild a record from its ``to_dict`` document.

        Raises ``ValueError`` for anything but a well-formed generation-2
        document: a missing ``schema_version``/``kind`` (an untyped
        report layout), another ``schema_version``, or a measurement
        without a numeric ``value``.
        """
        if "schema_version" not in payload or "kind" not in payload:
            raise ValueError(
                "not a RunRecord document (missing schema_version/kind)"
            )
        if payload["schema_version"] != RECORD_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported schema_version {payload['schema_version']!r} "
                f"(this build reads only {RECORD_SCHEMA_VERSION})"
            )
        measurements = {}
        for name, m in (payload.get("measurements", {}) or {}).items():
            try:
                measurements[name] = Measurement.from_dict(m)
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(
                    f"malformed measurement {name!r}: needs a numeric "
                    f"'value' ({type(exc).__name__}: {exc})"
                ) from exc
        return cls(
            kind=payload["kind"],
            run_id=payload.get("run_id", ""),
            created_at=payload.get("created_at", ""),
            schema_version=RECORD_SCHEMA_VERSION,
            environment=EnvironmentFingerprint.from_dict(
                payload.get("environment", {}) or {}
            ),
            provenance=dict(payload.get("provenance", {}) or {}),
            tags=list(payload.get("tags", []) or []),
            measurements=measurements,
            detail=dict(payload.get("detail", {}) or {}),
        )
