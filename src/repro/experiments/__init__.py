"""Experiment runners regenerating the paper's tables and figures.

Each module reproduces one evaluation artifact (see DESIGN.md section 4
for the experiment index); :mod:`.registry` maps experiment ids
(``T1``, ``F2``, ... ``F21``) to runner callables so the benchmark suite
and the ``EXPERIMENTS.md`` generator share one source of truth.
"""

from repro.experiments.registry import EXPERIMENTS, run_experiment

__all__ = ["EXPERIMENTS", "run_experiment"]
