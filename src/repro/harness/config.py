"""Kernel configuration and command-line interface building.

The paper stresses flexibility: "all of the configuration/execution
parameters can be set/changed from the command line" with proper defaults
and a ``--help`` message per kernel (Fig. 20).  Kernels here declare their
parameters as dataclass fields with metadata; :func:`build_arg_parser`
turns any such dataclass into an ``argparse`` parser whose ``--help``
output mirrors the paper's usage message.
"""

from __future__ import annotations

import argparse
import dataclasses
from dataclasses import dataclass, field, fields
from typing import Any, Dict, Optional, Type, TypeVar

C = TypeVar("C", bound="KernelConfig")


@dataclass(frozen=True)
class RTTaskDefaults:
    """Default periodic-task parameters for one kernel (milliseconds).

    The default deadline is the period (implicit-deadline tasks, the
    common model for robot control loops).  ``step_period_ms`` is the
    per-iteration release period for steppable kernels run with
    ``granularity="step"`` (one job = one ``step()`` on a persistent
    session); ``None`` means auto-calibrate from unpaced steps.
    """

    period_ms: float
    step_period_ms: Optional[float] = None


#: Per-kernel default periods for ``rtrbench rt``.  Stylized
#: from each pipeline stage's natural rate — perception at sensor rate,
#: planners at replanning cadence, controllers at actuation rate — then
#: scaled to this Python reproduction's measured default-config ROI
#: times (roughly 2-3x headroom on the reference machine), so the
#: unloaded default run is schedulable but not trivially so.  Override
#: from the command line with ``--period-ms`` / ``--deadline-ms``;
#: ``--period-ms 0`` auto-calibrates from warmup jobs.  Step periods
#: (``step_period_ms``, used by ``rtrbench rt --granularity step``) are
#: scaled the same way from measured per-iteration wall clocks of the
#: steppable kernels; non-steppable kernels leave them ``None``.
RT_KERNEL_DEFAULTS: Dict[str, RTTaskDefaults] = {
    "01.pfl": RTTaskDefaults(period_ms=10_000.0, step_period_ms=120.0),
    "02.ekfslam": RTTaskDefaults(period_ms=500.0, step_period_ms=1.0),
    "03.srec": RTTaskDefaults(period_ms=30_000.0, step_period_ms=1_200.0),
    "04.pp2d": RTTaskDefaults(period_ms=20_000.0),
    "05.pp3d": RTTaskDefaults(period_ms=20_000.0),
    "06.movtar": RTTaskDefaults(period_ms=20_000.0),
    "07.prm": RTTaskDefaults(period_ms=100.0),
    "08.rrt": RTTaskDefaults(period_ms=20_000.0),
    "09.rrtstar": RTTaskDefaults(period_ms=30_000.0),
    "10.rrtpp": RTTaskDefaults(period_ms=20_000.0),
    "11.sym-blkw": RTTaskDefaults(period_ms=10.0),
    "12.sym-fext": RTTaskDefaults(period_ms=250.0),
    "13.dmp": RTTaskDefaults(period_ms=100.0, step_period_ms=1.0),
    "14.mpc": RTTaskDefaults(period_ms=3_000.0, step_period_ms=8.0),
    "15.cem": RTTaskDefaults(period_ms=50.0, step_period_ms=1.0),
    "16.bo": RTTaskDefaults(period_ms=250.0),
}

#: Used for kernels not in :data:`RT_KERNEL_DEFAULTS` (e.g. plugins).
RT_FALLBACK_DEFAULTS = RTTaskDefaults(period_ms=1_000.0)


def rt_defaults(kernel_name: str) -> RTTaskDefaults:
    """Default periods for a kernel (full paper id, e.g. ``04.pp2d``)."""
    return RT_KERNEL_DEFAULTS.get(kernel_name, RT_FALLBACK_DEFAULTS)


def option(default: Any, help: str, **kwargs: Any) -> Any:
    """Declare a configurable kernel parameter with CLI help text."""
    if callable(default) and not isinstance(default, type):
        return field(default_factory=default, metadata={"help": help, **kwargs})
    return field(default=default, metadata={"help": help, **kwargs})


@dataclass
class KernelConfig:
    """Base class for per-kernel configuration.

    Subclasses add fields via :func:`option`; every field becomes a
    ``--field-name`` command-line option.  ``seed`` is common to all
    kernels so every run is reproducible.
    """

    seed: int = option(0, "Random number generation seed")
    output: Optional[str] = option(None, "Output file for kernel results")
    backend: str = option(
        "reference",
        "Execution backend: 'reference' (scalar/loop code, every kernel) "
        "or the kernel's one optimized tier — 'vectorized' (batched "
        "numpy) for pfl and srec, 'array' (flat-array search core) for "
        "pp2d, pp3d and movtar; any other value is rejected",
    )
    repeats: int = option(
        1,
        "Measured ROI executions; with N > 1 the min/median wall clock "
        "lands in the result metrics so one noisy run cannot pass for "
        "steady state",
    )
    warmup: int = option(
        0, "Untimed warmup executions before the measured repeats"
    )

    def replace(self: C, **changes: Any) -> C:
        """Return a copy of this config with ``changes`` applied."""
        return dataclasses.replace(self, **changes)

    def describe(self) -> str:
        """One-line ``key=value`` description of the configuration."""
        parts = [
            f"{f.name}={getattr(self, f.name)!r}" for f in fields(self)
        ]
        return ", ".join(parts)


def _cli_type(py_type: Any) -> Any:
    """Map a dataclass field annotation to an argparse type callable."""
    if py_type in (int, float, str):
        return py_type
    if py_type == bool:
        return None  # handled as store_true/store_false flags
    # Optional[X] / "Optional[X]" string annotations fall back to str.
    text = str(py_type)
    if "int" in text:
        return int
    if "float" in text:
        return float
    return str


def build_arg_parser(
    config_cls: Type[KernelConfig],
    prog: str,
    description: str = "",
) -> argparse.ArgumentParser:
    """Build an argparse parser for ``config_cls``.

    Every dataclass field becomes ``--<name-with-dashes>``; booleans become
    flags.  Defaults come from the dataclass, matching the paper's "proper
    default values for the configuration parameters".
    """
    parser = argparse.ArgumentParser(prog=prog, description=description)
    for f in fields(config_cls):
        opt = "--" + f.name.replace("_", "-")
        help_text = f.metadata.get("help", f.name)
        if f.default is not dataclasses.MISSING:
            default = f.default
        elif f.default_factory is not dataclasses.MISSING:  # type: ignore[misc]
            default = f.default_factory()  # type: ignore[misc]
        else:
            default = None
        if f.type in (bool, "bool"):
            parser.add_argument(
                opt,
                action="store_false" if default else "store_true",
                dest=f.name,
                help=help_text,
            )
        else:
            parser.add_argument(
                opt,
                type=_cli_type(f.type),
                default=default,
                dest=f.name,
                help=f"{help_text} (default: {default})",
                metavar="<val>",
            )
    return parser


def config_from_args(
    config_cls: Type[C], argv: Optional[list] = None, prog: str = "kernel"
) -> C:
    """Parse ``argv`` (or ``sys.argv``) into a config instance."""
    parser = build_arg_parser(config_cls, prog=prog, description=config_cls.__doc__ or "")
    namespace = parser.parse_args(argv)
    kwargs = {f.name: getattr(namespace, f.name) for f in fields(config_cls)}
    return config_cls(**kwargs)
