"""Record the pp2d/pp3d golden outputs from the reference backend.

Run from the repository root after changing the grid query pool::

    PYTHONPATH=src python3 perfbench/make_goldens.py

Writes ``perfbench/goldens.json``: path cost and expansion count of every
pp2d/pp3d query, keyed ``<kernel>:<seed>``.  The array backend the
benchmark runs must reproduce them exactly.
"""

from __future__ import annotations

import json

from repro.envs.cache import WorkloadCache, set_default_cache
from repro.harness.profiler import PhaseProfiler

import workloads


def main() -> None:
    set_default_cache(WorkloadCache(enabled=False))
    goldens = {}
    for label, kernel, config in workloads.grid_configs():
        config = config.replace(backend="reference")
        result = kernel.run_roi(config, kernel.setup(config), PhaseProfiler())
        if not result.found:
            raise RuntimeError(f"{label}: reference planner found no path")
        goldens[label] = {"cost": result.cost, "expansions": result.expansions}
        print(label, goldens[label])
    with open(workloads.GOLDENS_PATH, "w") as fh:
        json.dump(goldens, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
