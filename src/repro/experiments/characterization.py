"""Experiment T1 — Table I workload characterization.

Runs every kernel at its default configuration and checks that the
dominant instrumented phase matches the bottleneck the paper's Table I
reports.  The paper's quantitative per-kernel claims (E1-E8, E14) are
expressed as expectations here: a set of phases that must jointly
dominate, and optionally a minimum share for the leading phase.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.harness.reporting import format_table
from repro.harness.runner import load_all_kernels, registry


@dataclass
class Expectation:
    """The paper's bottleneck claim for one kernel."""

    kernel: str
    paper_bottleneck: str
    dominant_phases: Tuple[str, ...]
    min_combined_share: float = 0.5


# Paper Table I plus the per-kernel evaluation paragraphs in section V.
EXPECTATIONS: List[Expectation] = [
    Expectation("01.pfl", "Ray-casting (67-78%)", ("raycast",), 0.6),
    Expectation("02.ekfslam", "Matrix operations (>85%)", ("matrix_ops",), 0.85),
    Expectation(
        "03.srec",
        "Point cloud + matrix ops (memory-bound)",
        ("correspondence", "transform_estimation"),
        0.7,
    ),
    Expectation("04.pp2d", "Collision detection (>65%)", ("collision",), 0.65),
    Expectation(
        "05.pp3d", "Collision detection + graph search",
        ("collision", "search"), 0.7,
    ),
    Expectation(
        "06.movtar", "Input-dependent (search here: large environment)",
        ("search", "heuristic", "heuristic_precompute"), 0.7,
    ),
    Expectation(
        "07.prm", "Graph search + L2-norm calculations (online phase)",
        ("search", "l2_norm", "heuristic", "collision", "connect"), 0.6,
    ),
    Expectation(
        "08.rrt", "Collision detection + nearest neighbor search",
        ("collision", "nn_search"), 0.7,
    ),
    Expectation(
        "09.rrtstar", "Collision detection + nearest neighbor search",
        ("collision", "nn_search"), 0.7,
    ),
    Expectation(
        "10.rrtpp", "Collision detection + nearest neighbor search",
        ("collision", "nn_search", "shortcut"), 0.7,
    ),
    Expectation(
        "11.sym-blkw", "Graph search + string manipulation",
        ("search", "string_ops", "successor_gen"), 0.6,
    ),
    Expectation(
        "12.sym-fext", "Graph search + string manipulation",
        ("search", "string_ops", "successor_gen"), 0.6,
    ),
    Expectation(
        "13.dmp", "Fine-grained serialization",
        ("integrate", "basis_eval"), 0.7,
    ),
    Expectation("14.mpc", "Optimization (>80%)", ("optimize",), 0.8),
    Expectation("15.cem", "Sort (~1/3)", ("sort", "rollout", "refit"), 0.6),
    Expectation(
        "16.bo", "Sort (6x cem) + GP compute",
        ("sort", "gp_fit", "acquisition"), 0.6,
    ),
]

# Characterization overrides: a couple of kernels need slightly larger
# workloads than their sub-second defaults for stable time fractions.
_CONFIG_OVERRIDES: Dict[str, Dict[str, object]] = {
    "11.sym-blkw": {"blocks": 6},
}


@dataclass
class KernelCharacterization:
    """Measured breakdown for one kernel plus the claim verdict.

    ``counters`` carries the profiler's architecture-independent operation
    counts — deterministic for a given configuration, unlike the timing
    fractions — which is what the suite's parallel-vs-serial determinism
    check fingerprints.  ``setup_time`` is workload construction outside
    the ROI (the part the content-keyed cache accelerates).
    """

    kernel: str
    stage: str
    paper_bottleneck: str
    fractions: Dict[str, float]
    combined_share: float
    dominant_phase: str
    roi_time: float
    matches_paper: bool
    counters: Dict[str, int] = field(default_factory=dict)
    setup_time: float = 0.0


def characterize_kernel(expectation: Expectation) -> KernelCharacterization:
    """Run one kernel and compare its breakdown to the paper's claim."""
    load_all_kernels()
    cls = registry.get(expectation.kernel)
    overrides = _CONFIG_OVERRIDES.get(expectation.kernel, {})
    config = cls.config_cls(**overrides)
    result = cls().run(config)
    fractions = result.profiler.fractions()
    combined = sum(
        fractions.get(phase, 0.0) for phase in expectation.dominant_phases
    )
    dominant = result.profiler.dominant_phase() or "-"
    return KernelCharacterization(
        kernel=expectation.kernel,
        stage=cls.stage,
        paper_bottleneck=expectation.paper_bottleneck,
        fractions=fractions,
        combined_share=combined,
        dominant_phase=dominant,
        roi_time=result.roi_time,
        matches_paper=combined >= expectation.min_combined_share,
        counters=dict(result.profiler.counters),
        setup_time=result.setup_time,
    )


def characterize_kernel_by_name(kernel: str) -> KernelCharacterization:
    """Characterize one kernel by its paper id (worker-process entry)."""
    expectation = next(
        (e for e in EXPECTATIONS if e.kernel == kernel), None
    )
    if expectation is None:
        raise KeyError(f"no characterization expectation for {kernel!r}")
    return characterize_kernel(expectation)


def run_characterization(
    kernels: Optional[Sequence[str]] = None,
) -> List[KernelCharacterization]:
    """Characterize the whole suite (or a named subset), serially.

    Any kernel failure raises.  To characterize kernels in parallel,
    with a failure row per kernel, run them as suite tasks:
    ``rtrbench suite -j N --filter 'characterize:*'``.
    """
    return [
        characterize_kernel(e)
        for e in EXPECTATIONS
        if kernels is None or e.kernel in kernels
    ]


def render_characterization(
    rows: Sequence[KernelCharacterization],
) -> str:
    """Text rendition of the reproduced Table I."""
    table_rows = []
    for row in rows:
        table_rows.append(
            [
                row.kernel,
                row.stage,
                row.paper_bottleneck,
                row.dominant_phase,
                f"{row.combined_share:.0%}",
                "yes" if row.matches_paper else "NO",
            ]
        )
    return format_table(
        ["kernel", "stage", "paper bottleneck", "measured dominant",
         "claimed-phase share", "matches"],
        table_rows,
    )
