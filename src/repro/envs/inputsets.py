"""Named inputsets for the kernels.

The paper (section VI): "In the paper, we typically report kernel
execution results for one inputset per kernel.  However, in the
repository, we provide multiple inputsets for many of the kernels."

An inputset is a named bundle of configuration overrides — a workload
preset.  ``default`` is always available (the paper's reported setting,
i.e. the kernel's built-in defaults); the others vary the environment,
scale, or difficulty along the axes the paper calls out.

Use from code::

    from repro.envs.inputsets import inputset_overrides
    result = run_kernel("pp2d", **inputset_overrides("pp2d", "dense-city"))

or from the CLI::

    rtrbench run pp2d --inputset dense-city
"""

from __future__ import annotations

from typing import Dict, List

# kernel suffix -> inputset name -> config overrides
INPUTSETS: Dict[str, Dict[str, Dict[str, object]]] = {
    "pfl": {
        "default": {},
        "wing": {"map_rows": 100, "map_cols": 120, "particles": 2500,
                 "steps": 35},
        "sparse-sensing": {"beams": 8, "particles": 2000},
        "long-drive": {"steps": 60},
    },
    "ekfslam": {
        "default": {},
        "dense-landmarks": {"landmarks": 16},
        "noisy-sensors": {"range_sigma": 0.4, "bearing_sigma": 0.08},
        "long-loop": {"steps": 400},
    },
    "srec": {
        "default": {},
        "long-sequence": {"frames": 12},
        "dense-scans": {"scan_points": 3000, "scene_points": 15000},
        "noisy-camera": {"noise_sigma": 0.01},
    },
    "pp2d": {
        "default": {},
        "dense-city": {"rows": 256, "cols": 256},
        "fine-resolution": {"rows": 256, "cols": 256, "resolution": 0.5},
        "suboptimal-fast": {"epsilon": 2.5},
    },
    "pp3d": {
        "default": {},
        "tall-city": {"nz": 40},
        "wide-campus": {"nx": 160, "ny": 160},
    },
    "movtar": {
        "default": {},
        "small-env": {"rows": 24, "cols": 24, "horizon": 40},
        "large-env": {"rows": 128, "cols": 128, "horizon": 384},
        "rough-terrain": {"bumps": 14},
    },
    "prm": {
        "default": {},
        "map-f": {"map": "map-f"},
        "dense-roadmap": {"samples": 800},
        "high-dof": {"dof": 7},
    },
    "rrt": {
        "default": {},
        "map-f": {"map": "map-f"},
        "fine-steps": {"epsilon": 0.25, "samples": 8000},
    },
    "rrtstar": {
        "default": {},
        "map-f": {"map": "map-f"},
        "long-refine": {"samples": 8000},
    },
    "rrtpp": {
        "default": {},
        "map-f": {"map": "map-f"},
        "heavy-postprocess": {"shortcut_iterations": 500},
    },
    "rrtconnect": {
        "default": {},
        "map-f": {"map": "map-f"},
    },
    "sym-blkw": {
        "default": {},
        "tall-stack": {"blocks": 7},
        "spread-goal": {"goal": "spread"},
    },
    "sym-fext": {
        "default": {},
        "many-locations": {"locations": 7},
    },
    "dmp": {
        "default": {},
        "fine-integration": {"dt": 0.001},
        "many-basis": {"basis": 80},
    },
    "mpc": {
        "default": {},
        "long-horizon": {"horizon": 25},
        "highway": {"speed": 15.0, "steps": 300},
    },
    "cem": {
        "default": {},
        "big-population": {"iterations": 10, "samples": 60},
        "far-goal": {"goal_x": 6.0},
    },
    "bo": {
        "default": {},
        "wide-acquisition": {"candidates": 2048},
        "far-goal": {"goal_x": 6.0},
    },
}


def inputset_names(kernel: str) -> List[str]:
    """All inputset names for a kernel (by suffix, e.g. ``"pp2d"``)."""
    key = kernel.split(".", 1)[-1]
    if key not in INPUTSETS:
        raise KeyError(f"no inputsets registered for kernel {kernel!r}")
    return sorted(INPUTSETS[key])


def inputset_overrides(kernel: str, name: str) -> Dict[str, object]:
    """Configuration overrides for one named inputset."""
    key = kernel.split(".", 1)[-1]
    try:
        sets = INPUTSETS[key]
    except KeyError:
        raise KeyError(f"no inputsets registered for kernel {kernel!r}") from None
    try:
        return dict(sets[name])
    except KeyError:
        raise KeyError(
            f"kernel {kernel!r} has no inputset {name!r}; "
            f"available: {sorted(sets)}"
        ) from None
