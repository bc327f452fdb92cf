"""Experiment registry: id -> runner, shared by benchmarks and docs."""

from __future__ import annotations

from typing import Any, Callable, Dict

from repro.experiments.characterization import run_characterization
from repro.experiments.fig21_comparison import run_fig21
from repro.experiments.figures_control import (
    run_bo_vs_cem,
    run_fig15_dmp,
    run_fig18_cem,
    run_fig19_bo,
)
from repro.experiments.figures_perception import (
    run_fig2_pfl,
    run_fig3_ekfslam,
    run_fig4_srec,
)
from repro.experiments.figures_planning import (
    run_movtar_input_dependence,
    run_rrt_family,
    run_symbolic_branching,
)
from repro.harness.suite import run_suite

EXPERIMENTS: Dict[str, Callable[..., Any]] = {
    "T1": run_characterization,
    "F2": run_fig2_pfl,
    "F3": run_fig3_ekfslam,
    "F4": run_fig4_srec,
    "E6": run_movtar_input_dependence,
    "E9": run_rrt_family,
    "E11": run_symbolic_branching,
    "F15": run_fig15_dmp,
    "F18": run_fig18_cem,
    "F19": run_fig19_bo,
    "E16": run_bo_vs_cem,
    "F21": run_fig21,
    # The end-to-end suite run (characterization + bench + F21 sweep) on
    # the parallel executor; not a single paper figure but the harness
    # that regenerates them all in one dispatch.
    "SUITE": run_suite,
}


def run_experiment(experiment_id: str, **kwargs: Any) -> Any:
    """Run one experiment by its DESIGN.md id."""
    try:
        runner = EXPERIMENTS[experiment_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; "
            f"known: {sorted(EXPERIMENTS)}"
        ) from None
    return runner(**kwargs)

