"""Closed-loop benchmark of the repro kernels, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload localize_track --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seconds 50

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` makes one traced pass and reports the per-layer metrics,
writing its spans to ``.perfbench_out/``.  The last line of standard
output is the result as one JSON object; the line before it holds
diagnostics.  ``--workload all`` runs every workload in its own process
and prints a table of its metrics.
"""

from __future__ import annotations

import os

# Pin the BLAS/OpenMP pools before anything imports numpy: a second BLAS
# thread doubles CPU per frame on srec without saving wall time, and its
# scheduling is a noise source.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from typing import List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: Must match ``workloads.WORKLOADS``, which needs numpy to import.
WORKLOAD_NAMES = ("localize_track", "reconstruct_plan")
#: A child process of ``--workload all`` is killed after this long.
CHILD_TIMEOUT_S = 900


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=WORKLOAD_NAMES + ("all",)
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _run_all(args: argparse.Namespace) -> int:
    """Every workload in its own process; prints a metric table."""
    results = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [
                sys.executable, os.path.abspath(__file__),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
            ],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            sys.stderr.write(proc.stderr)
            print(f"{name}: failed with exit code {proc.returncode}")
            return 1
        result = json.loads(lines[-1])
        fail_frac = json.loads(lines[-2])["diagnostics"]["fail_frac"]
        results[name] = result
        print(f"{name}: correct={result['correct']} attempted="
              f"{result['attempted']} fail_frac={fail_frac:g}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:<28} {entry['value']:>14.6g} {entry['unit']}")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no repro sources under {ROOT}/src", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    tmp_root = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix="run-", dir=tmp_root)
    # Every cache this run builds lives under run_dir and goes with it.
    os.environ["RTRBENCH_CACHE_DIR"] = run_dir
    os.environ["RTRBENCH_CACHE"] = "1"
    try:
        import measure

        if args.trace:
            out_dir = os.path.join(ROOT, ".perfbench_out")
            os.makedirs(out_dir, exist_ok=True)
            trace_path = os.path.join(
                out_dir, f"trace-{args.workload}-seed{args.seed}.json"
            )
            result, diagnostics = measure.trace_run(
                args.workload, args.seed, run_dir, trace_path
            )
        else:
            result, diagnostics = measure.measure_run(
                args.workload, args.seed, args.seconds, run_dir
            )
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(tmp_root)
        except OSError:
            pass  # another run is still using it
    print(json.dumps({"diagnostics": diagnostics}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
