"""Kernels 11.sym-blkw and 12.sym-fext — symbolic planning benchmarks."""

from __future__ import annotations

from dataclasses import dataclass

from repro.harness.config import KernelConfig, option
from repro.harness.profiler import PhaseProfiler
from repro.harness.runner import Kernel, registry
from repro.planning.symbolic.domains import blocks_world, firefighter
from repro.planning.symbolic.planner import (
    PlanResult,
    SymbolicPlanner,
    SymbolicProblem,
)


@dataclass
class SymBlkwConfig(KernelConfig):
    """Configuration of the sym-blkw kernel."""

    blocks: int = option(5, "Number of blocks", at_least=2)
    goal: str = option(
        "reverse", "Goal preset: reverse or spread",
        choices=("reverse", "spread"),
    )
    epsilon: float = option(1.0, "Weighted A* heuristic inflation", at_least=1)


@registry.register
class SymBlkwKernel(Kernel):
    """Blocks world under the symbolic planner (graph search + strings)."""

    name = "11.sym-blkw"
    stage = "planning"
    config_cls = SymBlkwConfig
    description = "Symbolic planning: blocks world"

    def setup(self, config: SymBlkwConfig) -> SymbolicProblem:
        return blocks_world(n_blocks=config.blocks, goal=config.goal)

    def run_roi(
        self, config: SymBlkwConfig, state: SymbolicProblem, profiler: PhaseProfiler
    ) -> PlanResult:
        planner = SymbolicPlanner(state, epsilon=config.epsilon, profiler=profiler)
        return planner.plan()


@dataclass
class SymFextConfig(KernelConfig):
    """Configuration of the sym-fext kernel."""

    locations: int = option(5, "Number of generic locations", at_least=2)
    epsilon: float = option(1.0, "Weighted A* heuristic inflation", at_least=1)


@registry.register
class SymFextKernel(Kernel):
    """Firefighting robots under the same symbolic planner.

    Exhibits ~3x the branching factor of sym-blkw (the paper's measured
    parallelism headroom) because far more ground actions are valid per
    state.
    """

    name = "12.sym-fext"
    stage = "planning"
    config_cls = SymFextConfig
    description = "Symbolic planning: firefighter robots"

    def setup(self, config: SymFextConfig) -> SymbolicProblem:
        return firefighter(n_locations=config.locations)

    def run_roi(
        self, config: SymFextConfig, state: SymbolicProblem, profiler: PhaseProfiler
    ) -> PlanResult:
        planner = SymbolicPlanner(state, epsilon=config.epsilon, profiler=profiler)
        return planner.plan()
