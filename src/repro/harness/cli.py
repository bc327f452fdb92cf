"""``rtrbench`` command-line entry point.

Usage mirrors the paper's per-kernel binaries (Fig. 20): every kernel gets
its own sub-command whose ``--help`` lists all configuration options with
defaults.

    rtrbench list [--json]
    rtrbench run pp2d --rows 256 --seed 7
    rtrbench run rrt --help
    rtrbench run pp2d --inputset dense-city
    rtrbench run pfl --repeats 5 --warmup 1
    rtrbench inputsets pp2d
    rtrbench characterize [-j N]
    rtrbench bench [--smoke] [-j N]
    rtrbench suite [-j N] [--smoke] [--filter GLOB]
    rtrbench rt pfl --period-ms 100 --deadline-ms 100 --jobs 200
    rtrbench rt pfl --granularity step
    rtrbench rt cem --antagonists 4 --antagonist-kind membw
    rtrbench cache [stats|clear] [--json]
    rtrbench report [bench@latest]
    rtrbench compare bench@latest BENCH_hotpaths.json
    rtrbench gate --strict

``bench`` / ``suite`` / ``rt`` emit schema-versioned run records: the
``--output`` file is a record, and a copy is appended to the
``.rtrbench_results/`` history (``--no-store`` skips that).  ``report``
lists or renders stored records, ``compare`` diffs two records with a
noise tolerance, and ``gate`` judges records against the declarative
regression gates (the single CI entry point replacing the old
per-subsystem floor checkers).
"""

from __future__ import annotations

import dataclasses
import sys
from typing import List, Optional

from repro.harness.config import build_arg_parser, config_from_args
from repro.harness.reporting import result_summary
from repro.harness.runner import load_all_kernels, registry


def _add_store_options(parser) -> None:
    """Record-store options shared by the record-emitting subcommands."""
    parser.add_argument(
        "--results-dir", default=None, metavar="DIR",
        help=(
            "record history directory (default: .rtrbench_results, or "
            "RTRBENCH_RESULTS_DIR)"
        ),
    )
    parser.add_argument(
        "--no-store", action="store_true",
        help="write only --output; skip appending to the result history",
    )


def _persist_record(record, args) -> None:
    """Append a record to the history store and write the --output file."""
    from repro.harness.reporting import write_json_report
    from repro.results import ResultStore

    if not args.no_store:
        path = ResultStore(args.results_dir).save(record)
        print(f"record stored at {path}")
    write_json_report(record.to_dict(), args.output)
    print(f"report written to {args.output}")


def _enforce_gates(record, args) -> int:
    """Judge a freshly produced record against the shipped gate policy."""
    from repro.results import ResultStore, evaluate_gates

    store = None if args.no_store else ResultStore(args.results_dir)
    failures = [
        r for r in evaluate_gates(record, store=store) if r.failed
    ]
    for failure in failures:
        print(f"GATE FAILURE {failure.gate}: {failure.reason}",
              file=sys.stderr)
    return 1 if failures else 0


def _cmd_list(argv: List[str]) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="rtrbench list",
        description=(
            "List every registered kernel with its pipeline stage, "
            "execution model (steppable kernels support 'rtrbench rt "
            "--granularity step'), and description."
        ),
    )
    parser.add_argument(
        "--json", action="store_true",
        help="machine-readable listing for tooling and the suite builder",
    )
    args = parser.parse_args(argv)
    load_all_kernels()
    if args.json:
        import json

        payload = [
            {
                "name": name,
                "stage": registry.get(name).stage,
                "steppable": registry.get(name).is_steppable(),
                "description": registry.get(name).description,
            }
            for name in registry.names()
        ]
        print(json.dumps(payload, indent=2))
        return 0
    for name in registry.names():
        cls = registry.get(name)
        model = "steppable" if cls.is_steppable() else "batch"
        print(f"{name:<14} {cls.stage:<11} {model:<10} {cls.description}")
    return 0


_RUN_USAGE = (
    "usage: rtrbench run <kernel> [options]\n"
    "'rtrbench list' names the kernels; "
    "'rtrbench run <kernel> --help' lists a kernel's options."
)


def _cmd_run(argv: List[str]) -> int:
    if not argv:
        print(_RUN_USAGE, file=sys.stderr)
        return 2
    if argv[0] in ("-h", "--help"):
        print(_RUN_USAGE)
        return 0
    load_all_kernels()
    name, rest = argv[0], argv[1:]
    try:
        cls = registry.get(name)
    except KeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # --inputset <name> expands into configuration overrides before the
    # regular option parse, so explicit flags still win.
    if "--inputset" in rest:
        from repro.envs.inputsets import inputset_overrides

        i = rest.index("--inputset")
        try:
            inputset = rest[i + 1]
        except IndexError:
            print("error: --inputset requires a name", file=sys.stderr)
            return 2
        try:
            overrides = inputset_overrides(name, inputset)
        except KeyError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        # Field defaults matter for boolean overrides: argparse models a
        # bool field as a toggle flag, so ``str(value)`` positionals would
        # misparse — emit the bare flag only when the value differs from
        # the field's default (i.e. when the toggle actually fires).
        defaults = {}
        for f in dataclasses.fields(cls.config_cls):
            if f.default is not dataclasses.MISSING:
                defaults[f.name] = f.default
            elif f.default_factory is not dataclasses.MISSING:  # type: ignore[misc]
                defaults[f.name] = f.default_factory()  # type: ignore[misc]
        expanded = []
        for key, value in overrides.items():
            flag = "--" + key.replace("_", "-")
            if isinstance(value, bool):
                if value != defaults.get(key, False):
                    expanded.append(flag)
            else:
                expanded.append(flag)
                expanded.append(str(value))
        rest = expanded + rest[:i] + rest[i + 2 :]
    config = config_from_args(cls.config_cls, rest, prog=f"rtrbench run {name}")
    try:
        result = cls().run(config)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(result_summary(result))
    if config.output:
        with open(config.output, "w") as fh:
            fh.write(result_summary(result) + "\n")
    return 0


def _cmd_inputsets(argv: List[str]) -> int:
    from repro.envs.inputsets import INPUTSETS, inputset_names

    kernels = argv if argv else sorted(INPUTSETS)
    for kernel in kernels:
        try:
            names = inputset_names(kernel)
        except KeyError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"{kernel}: {', '.join(names)}")
    return 0


def _cmd_characterize(argv: List[str]) -> int:
    import argparse

    from repro.experiments.characterization import (
        render_characterization,
        run_characterization,
    )

    parser = argparse.ArgumentParser(
        prog="rtrbench characterize",
        description="Reproduce the Table I workload characterization.",
    )
    parser.add_argument(
        "kernels", nargs="*", help="kernel subset (default: whole suite)"
    )
    parser.add_argument(
        "-j", "--jobs", type=int, default=1,
        help="worker processes (default: 1, serial)",
    )
    args = parser.parse_args(argv)
    kernels = None
    if args.kernels:
        load_all_kernels()
        try:
            kernels = [registry.get(name).name for name in args.kernels]
        except KeyError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    rows = run_characterization(kernels, jobs=args.jobs)
    print(render_characterization(rows))
    return 0 if all(r.matches_paper for r in rows) else 1


def _cmd_bench(argv: List[str]) -> int:
    import argparse

    from repro.harness.bench import render_report, run_bench_record

    parser = argparse.ArgumentParser(
        prog="rtrbench bench",
        description=(
            "Benchmark the reference vs vectorized hot-path backends "
            "under a pinned thread environment, emit a run record, and "
            "enforce the per-phase speedup-floor gates."
        ),
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small workloads, no gate enforcement (CI sanity run)",
    )
    parser.add_argument(
        "--seed", type=int, default=7, help="workload seed (default: 7)"
    )
    parser.add_argument(
        "--output",
        default="BENCH_hotpaths.json",
        help="record path (default: BENCH_hotpaths.json)",
    )
    parser.add_argument(
        "--no-check",
        action="store_true",
        help="write the record without enforcing the speedup-floor gates",
    )
    parser.add_argument(
        "-j", "--jobs", type=int, default=1,
        help="worker processes for the bench phases (default: 1, serial)",
    )
    parser.add_argument(
        "--phases", nargs="+", metavar="GLOB", default=None,
        help=(
            "run only the bench phases matching these glob patterns "
            "(e.g. 'search_*'); partial records skip gate enforcement"
        ),
    )
    _add_store_options(parser)
    args = parser.parse_args(argv)
    try:
        record = run_bench_record(
            smoke=args.smoke, seed=args.seed, jobs=args.jobs,
            phases=args.phases,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(render_report(record.detail))
    _persist_record(record, args)
    if args.phases:
        # A filtered record lacks the other phases' metrics; gates with
        # on_missing='fail' would misread that as a regression.
        print("phase filter active: skipping gate enforcement")
        return 0
    if args.smoke or args.no_check:
        return 0
    return _enforce_gates(record, args)


def _cmd_suite(argv: List[str]) -> int:
    import argparse

    from repro.harness.reporting import render_suite_report
    from repro.harness.suite import run_suite
    from repro.results import capture_environment, record_from_suite

    parser = argparse.ArgumentParser(
        prog="rtrbench suite",
        description=(
            "Run characterization + hot-path bench + the Fig. 21 sweep "
            "end-to-end on a worker pool, with cached workload setup."
        ),
    )
    parser.add_argument(
        "-j", "--jobs", type=int, default=1,
        help="worker processes (default: 1, serial)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help=(
            "fast-kernel subset, small workloads, no floor enforcement "
            "(CI sanity run)"
        ),
    )
    parser.add_argument(
        "--seed", type=int, default=7, help="suite seed (default: 7)"
    )
    parser.add_argument(
        "--timeout", type=float, default=None,
        help="per-task timeout in seconds (parallel runs only)",
    )
    parser.add_argument(
        "--output",
        default="BENCH_suite.json",
        help="record path (default: BENCH_suite.json)",
    )
    parser.add_argument(
        "--baseline",
        action="store_true",
        help=(
            "re-run the task list serially after the parallel pass to "
            "measure speedup directly (doubles wall time); without it "
            "the comparison is derived from the latest comparable "
            "serial record in the result store"
        ),
    )
    parser.add_argument(
        "--no-check",
        action="store_true",
        help="write the record without enforcing the suite gates",
    )
    parser.add_argument(
        "--filter",
        default=None,
        metavar="GLOB",
        help=(
            "run only tasks whose name matches this glob "
            "(e.g. 'characterize:*', 'rt:*', 'bench:raycast')"
        ),
    )
    _add_store_options(parser)
    args = parser.parse_args(argv)
    try:
        report = run_suite(
            jobs=args.jobs,
            smoke=args.smoke,
            seed=args.seed,
            timeout=args.timeout,
            baseline=args.baseline,
            task_filter=args.filter,
            results_dir=args.results_dir,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    record = record_from_suite(report, env=capture_environment())
    print(render_suite_report(report))
    _persist_record(record, args)
    if args.smoke or args.no_check:
        return 0
    return _enforce_gates(record, args)


def _cmd_rt(argv: List[str]) -> int:
    import argparse

    from repro.harness.reporting import render_rt_report
    from repro.results import capture_environment, record_from_rt
    from repro.rt.interference import ANTAGONIST_KINDS
    from repro.rt.run import GRANULARITIES, run_rt
    from repro.rt.scheduler import OVERRUN_POLICIES

    parser = argparse.ArgumentParser(
        prog="rtrbench rt",
        description=(
            "Run a kernel as a periodic real-time task: fire jobs on a "
            "fixed period, record response-time quantiles, release "
            "jitter, and deadline misses, and judge the run against an "
            "SLO.  Unrecognized options are forwarded to the kernel's "
            "own configuration (same flags as 'rtrbench run')."
        ),
    )
    parser.add_argument("kernel", help="kernel name (e.g. pp2d or 04.pp2d)")
    parser.add_argument(
        "--granularity", choices=GRANULARITIES, default="run",
        help=(
            "job unit: 'run' releases full kernel runs, 'step' releases "
            "single iterations on a persistent session (steppable "
            "kernels only; see 'rtrbench list') (default: run)"
        ),
    )
    parser.add_argument(
        "--period-ms", type=float, default=None,
        help=(
            "release period in ms (default: the kernel's entry in "
            "RT_KERNEL_DEFAULTS; 0 auto-calibrates from warmup jobs)"
        ),
    )
    parser.add_argument(
        "--deadline-ms", type=float, default=None,
        help="relative deadline in ms (default: the period)",
    )
    parser.add_argument(
        "--jobs", type=int, default=None,
        help="measured jobs (default: 50, or 12 with --smoke)",
    )
    parser.add_argument(
        "--warmup", type=int, default=None,
        help="excluded warmup jobs (default: 3, or 1 with --smoke)",
    )
    parser.add_argument(
        "--overrun", choices=OVERRUN_POLICIES, default="skip",
        help="policy when a job overruns the next release (default: skip)",
    )
    parser.add_argument(
        "--antagonists", type=int, default=0,
        help="also run under N antagonist processes and report both",
    )
    parser.add_argument(
        "--antagonist-kind", choices=ANTAGONIST_KINDS, default="cpu",
        help="antagonist workload (default: cpu)",
    )
    parser.add_argument(
        "--max-miss-rate", type=float, default=None,
        help="SLO miss-rate bound (default: 0.1, or 1.0 with --smoke)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="small job count, relaxed miss-rate bound, no floors",
    )
    parser.add_argument(
        "--output", default="BENCH_rt.json",
        help="record path (default: BENCH_rt.json)",
    )
    parser.add_argument(
        "--no-check", action="store_true",
        help="write the record without enforcing the rt gates",
    )
    _add_store_options(parser)
    args, kernel_args = parser.parse_known_args(argv)

    from repro.harness.runner import load_all_kernels, registry

    load_all_kernels()
    try:
        cls = registry.get(args.kernel)
    except KeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    config = None
    if kernel_args:
        config = config_from_args(
            cls.config_cls, kernel_args, prog=f"rtrbench rt {args.kernel}"
        )
    try:
        report = run_rt(
            cls.name,
            period_ms=args.period_ms,
            deadline_ms=args.deadline_ms,
            jobs=args.jobs,
            warmup=args.warmup,
            overrun=args.overrun,
            antagonists=args.antagonists,
            antagonist_kind=args.antagonist_kind,
            smoke=args.smoke,
            max_miss_rate=args.max_miss_rate,
            config=config,
            granularity=args.granularity,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    record = record_from_rt(report, env=capture_environment())
    print(render_rt_report(report))
    _persist_record(record, args)
    if args.smoke or args.no_check:
        return 0
    return _enforce_gates(record, args)


def _cmd_cache(argv: List[str]) -> int:
    import argparse

    from repro.envs.cache import default_cache

    parser = argparse.ArgumentParser(
        prog="rtrbench cache",
        description=(
            "Inspect or clear the content-keyed workload cache "
            "(.rtrbench_cache/ by default; RTRBENCH_CACHE_DIR relocates "
            "it)."
        ),
    )
    parser.add_argument(
        "action", nargs="?", default="stats", choices=("stats", "clear"),
        help=(
            "'stats' (default) prints disk usage; 'clear' empties the cache, "
            "compiled C cores (A* search, ray casting) included"
        ),
    )
    parser.add_argument(
        "--memory-only", action="store_true",
        help="with 'clear': drop only the in-process layer, keep disk",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="with 'stats': machine-readable output for suite tooling/CI",
    )
    args = parser.parse_args(argv)
    cache = default_cache()
    if args.action == "stats" and args.json:
        import json

        payload = dict(cache.disk_stats())
        payload["process"] = cache.stats.as_dict()
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    if args.action == "clear":
        before = cache.disk_stats()
        cache.clear(memory_only=args.memory_only)
        after = cache.disk_stats()
        print(
            f"cleared {before['entries'] - after['entries']} entries "
            f"({before['bytes'] - after['bytes']} bytes) from "
            f"{cache.cache_dir}"
        )
        return 0
    stats = cache.disk_stats()
    print(f"cache dir: {stats['cache_dir']}")
    print(f"enabled: {stats['enabled']}")
    print(f"entries: {stats['entries']}")
    print(f"bytes: {stats['bytes']}")
    process = cache.stats.as_dict()
    print(
        "this process: "
        f"{cache.stats.hits} hits ({process['memory_hits']} memory, "
        f"{process['disk_hits']} disk), {process['misses']} misses"
    )
    per_category = process.get("per_category") or {}
    for category in sorted(per_category):
        print(f"  {category}: {per_category[category]} lookups")
    return 0


def _cmd_report(argv: List[str]) -> int:
    import argparse
    import json

    from repro.harness.reporting import render_record
    from repro.results import ResultStore

    parser = argparse.ArgumentParser(
        prog="rtrbench report",
        description=(
            "List the stored run-record history, or render one record "
            "(by path, '<kind>', '<kind>@latest', or '<kind>@<run_id>')."
        ),
    )
    parser.add_argument(
        "ref", nargs="?", default=None,
        help="record reference (default: list the whole history)",
    )
    parser.add_argument(
        "--results-dir", default=None, metavar="DIR",
        help="record history directory (default: .rtrbench_results)",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="print the raw record document instead of the table view",
    )
    args = parser.parse_args(argv)
    store = ResultStore(args.results_dir)
    if args.ref is None:
        kinds = store.kinds()
        if not kinds:
            print(f"no records stored under {store.root}")
            return 0
        for kind in kinds:
            history = store.history(kind)
            latest = store.latest_path(kind)
            latest_name = (
                latest.rsplit("/", 1)[-1][:-5] if latest else "?"
            )
            print(
                f"{kind:<12} {len(history)} record(s), latest {latest_name}"
            )
        return 0
    try:
        record = store.load(args.ref)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(record.to_dict(), indent=2, sort_keys=True))
    else:
        print(render_record(record))
    return 0


def _cmd_compare(argv: List[str]) -> int:
    import argparse

    from repro.results import ResultStore, compare_records
    from repro.results.compare import DEFAULT_TOLERANCE, render_comparison

    parser = argparse.ArgumentParser(
        prog="rtrbench compare",
        description=(
            "Metric-by-metric delta between two run records (store "
            "references or RunRecord file paths such as BENCH_*.json), "
            "with a relative noise tolerance."
        ),
    )
    parser.add_argument("baseline", help="record A (the baseline)")
    parser.add_argument("candidate", help="record B (the candidate)")
    parser.add_argument(
        "--tolerance", type=float, default=DEFAULT_TOLERANCE,
        help=(
            "relative noise tolerance, e.g. 0.05 = 5%% "
            f"(default: {DEFAULT_TOLERANCE})"
        ),
    )
    parser.add_argument(
        "--metrics", default=None, metavar="GLOB",
        help="compare only metric names matching this glob ('*.speedup')",
    )
    parser.add_argument(
        "--fail-on-regression", action="store_true",
        help="exit 1 when any directional metric regressed beyond tolerance",
    )
    parser.add_argument(
        "--results-dir", default=None, metavar="DIR",
        help="record history directory (default: .rtrbench_results)",
    )
    args = parser.parse_args(argv)
    store = ResultStore(args.results_dir)
    try:
        a = store.load(args.baseline)
        b = store.load(args.candidate)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    comparison = compare_records(
        a, b, tolerance=args.tolerance, metrics=args.metrics
    )
    print(render_comparison(comparison))
    if args.fail_on_regression and comparison.regressions():
        return 1
    return 0


def _cmd_gate(argv: List[str]) -> int:
    import argparse

    from repro.results import ResultStore, evaluate_gates, render_gate_results
    from repro.results.gates import gate_failures, gates_from_file

    parser = argparse.ArgumentParser(
        prog="rtrbench gate",
        description=(
            "Judge run records against the declarative regression gates. "
            "With no references, every kind's latest stored record is "
            "gated — the single CI entry point that replaced the "
            "per-subsystem floor checkers."
        ),
    )
    parser.add_argument(
        "refs", nargs="*",
        help=(
            "records to gate: store references or file paths "
            "(default: the latest record of every stored kind)"
        ),
    )
    parser.add_argument(
        "--gates", default=None, metavar="FILE",
        help="JSON file with gate declarations (default: shipped policy)",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help=(
            "fail when there is nothing to gate or a reference cannot "
            "be loaded (CI mode: an empty store must not pass silently)"
        ),
    )
    parser.add_argument(
        "--results-dir", default=None, metavar="DIR",
        help="record history directory (default: .rtrbench_results)",
    )
    args = parser.parse_args(argv)
    store = ResultStore(args.results_dir)
    gates = None
    if args.gates is not None:
        try:
            gates = gates_from_file(args.gates)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    refs = args.refs or store.kinds()
    failed = False
    gated = 0
    for ref in refs:
        try:
            record = store.load(ref)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            if args.strict:
                failed = True
            continue
        results = evaluate_gates(record, gates=gates, store=store)
        print(render_gate_results(record, results))
        gated += 1
        if gate_failures(results):
            failed = True
    if gated == 0:
        print(
            f"no records to gate under {store.root}",
            file=sys.stderr if args.strict else sys.stdout,
        )
        if args.strict:
            return 1
    return 1 if failed else 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI dispatcher; returns a process exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__)
        return 0
    command, rest = argv[0], argv[1:]
    if command == "list":
        return _cmd_list(rest)
    if command == "run":
        return _cmd_run(rest)
    if command == "inputsets":
        return _cmd_inputsets(rest)
    if command == "characterize":
        return _cmd_characterize(rest)
    if command == "bench":
        return _cmd_bench(rest)
    if command == "suite":
        return _cmd_suite(rest)
    if command == "rt":
        return _cmd_rt(rest)
    if command == "cache":
        return _cmd_cache(rest)
    if command == "report":
        return _cmd_report(rest)
    if command == "compare":
        return _cmd_compare(rest)
    if command == "gate":
        return _cmd_gate(rest)
    print(f"error: unknown command {command!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
