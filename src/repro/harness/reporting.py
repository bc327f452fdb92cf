"""Reporting helpers: text tables for kernel results, JSON suite reports."""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Sequence

from repro.harness.runner import KernelResult


def format_table(
    headers: Sequence[str], rows: Iterable[Sequence[object]]
) -> str:
    """Render a fixed-width text table with a header rule."""
    materialized: List[List[str]] = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in materialized:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def render(cells: Sequence[str]) -> str:
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()

    lines = [render(list(headers)), render(["-" * w for w in widths])]
    lines.extend(render(row) for row in materialized)
    return "\n".join(lines)


def result_summary(result: KernelResult) -> str:
    """One-paragraph summary of a kernel run: ROI time + phase breakdown."""
    lines = [
        f"kernel {result.kernel} ({result.stage})",
        f"ROI time: {result.roi_time:.4f}s",
        result.profiler.report(),
    ]
    if result.metrics:
        lines.append("metrics:")
        for key, value in sorted(result.metrics.items()):
            lines.append(f"  {key} = {value:.6g}")
    return "\n".join(lines)


def characterization_table(results: Iterable[KernelResult]) -> str:
    """Table-I-style view: kernel, stage, dominant phase, its share."""
    rows = []
    for result in results:
        dominant = result.profiler.dominant_phase() or "-"
        share = result.profiler.fraction(dominant) if dominant != "-" else 0.0
        rows.append(
            [result.kernel, result.stage, dominant, f"{share:.0%}",
             f"{result.roi_time:.4f}s"]
        )
    return format_table(
        ["kernel", "stage", "dominant phase", "share", "ROI time"], rows
    )


def write_json_report(payload: Any, path: str) -> None:
    """Write a machine-readable report as pretty-printed, sorted JSON."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=repr)
        fh.write("\n")


def render_record(record: Any) -> str:
    """Human view of a :class:`~repro.results.record.RunRecord`.

    Header (identity + provenance), environment fingerprint, then the
    flat measurement table — the same names ``rtrbench gate`` and
    ``rtrbench compare`` address.
    """
    env = record.environment
    lines = [
        f"{record.kind} record {record.run_id} "
        f"(schema v{record.schema_version}, {record.created_at})"
    ]
    if record.tags:
        lines.append(f"tags: {', '.join(record.tags)}")
    if record.provenance:
        provenance = ", ".join(
            f"{key}={value}"
            for key, value in sorted(record.provenance.items())
            if value is not None
        )
        lines.append(f"provenance: {provenance}")
    thread_env = (
        ", ".join(f"{k}={v}" for k, v in sorted(env.thread_env.items()))
        or "unpinned"
    )
    sha = env.git_sha or "unknown"
    short_sha = sha[:12] + ("-dirty" if sha.endswith("-dirty") else "")
    lines.append(
        f"environment: python {env.python or '?'}, numpy {env.numpy or '?'}, "
        f"{env.cpu_count or '?'} cpus, git {short_sha}, "
        f"threads: {thread_env} [{env.digest()}]"
    )
    rows = [
        [name, f"{m.value:.6g}", m.unit or "-"]
        for name, m in sorted(record.measurements.items())
    ]
    lines.append(format_table(["measurement", "value", "unit"], rows))
    return "\n".join(lines)


def render_rt_report(report: Dict[str, Any]) -> str:
    """Human view of a ``run_rt`` report: per-condition latency table."""
    rt = report["rt"]
    header = (
        f"rt {rt['kernel']} ({rt['stage']}): "
        f"period {rt['period_ms']:.3g}ms, deadline {rt['deadline_ms']:.3g}ms, "
        f"{rt['jobs']} jobs (+{rt['warmup']} warmup), overrun={rt['overrun']}"
    )
    if rt.get("granularity") == "step":
        header += (
            f" [per-step, {rt.get('steps_per_episode', '?')} steps/episode]"
        )
    if rt.get("calibrated"):
        header += " [calibrated]"
    if rt.get("smoke"):
        header += " [smoke]"
    rows = []
    for condition, summary in report["conditions"].items():
        response = summary["response_ms"]
        rows.append(
            [
                condition,
                f"{response['p50']:.3f}",
                f"{response['p90']:.3f}",
                f"{response['p99']:.3f}",
                f"{response['max']:.3f}",
                f"{summary['jitter_ms']['p99']:.3f}",
                f"{summary['miss_rate']:.1%}",
                str(summary["skipped_releases"]),
            ]
        )
    lines = [
        header,
        format_table(
            [
                "condition",
                "p50 (ms)",
                "p90 (ms)",
                "p99 (ms)",
                "max (ms)",
                "jitter p99",
                "miss rate",
                "skipped",
            ],
            rows,
        ),
    ]
    degradation = report.get("degradation")
    if degradation:
        lines.append(
            f"antagonists ({rt['antagonists']}x {rt['antagonist_kind']}): "
            f"p50 {degradation['p50_ratio']:.2f}x, "
            f"p99 {degradation['p99_ratio']:.2f}x, "
            f"miss rate {degradation['miss_rate_delta']:+.1%}"
        )
    if rt.get("granularity") == "step":
        unloaded = report["conditions"]["unloaded"]
        lines.append(
            f"episodes: {unloaded.get('episodes', 0)} opened, last at "
            f"step {unloaded.get('last_episode_steps', 0)}/"
            f"{rt.get('steps_per_episode', '?')}"
        )
    breakdown = report["conditions"]["unloaded"]["phase_breakdown"]
    if breakdown.get("dominant"):
        dominant = breakdown["phases"][breakdown["dominant"]]
        lines.append(
            f"dominant phase: {breakdown['dominant']} "
            f"({dominant['share']:.0%}, per-job "
            f"{dominant['min_ms']:.3f}..{dominant['max_ms']:.3f}ms)"
        )
    return "\n".join(lines)


def render_suite_report(report: Dict[str, Any]) -> str:
    """Human view of a ``run_suite`` report: task table + executor summary."""
    rows = []
    for row in report["tasks"]:
        if row["ok"]:
            status = "ok"
        elif row.get("timed_out"):
            status = "TIMEOUT"
        else:
            status = "FAIL"
        rows.append(
            [
                row["task"],
                status,
                f"{row['wall_s']:.3f}s",
                f"{row.get('exec_s', 0.0):.3f}s",
                f"{row.get('queue_wait_s', 0.0):.3f}s",
                f"{row.get('roi_s', 0.0):.3f}s" if row["ok"] else "-",
                "-" if row.get("worker") is None else f"w{row['worker']}",
            ]
        )
    lines = [
        format_table(
            ["task", "status", "wall", "exec", "queued", "ROI", "worker"],
            rows,
        )
    ]
    suite = report["suite"]
    lines.append(
        f"suite: {suite['task_count']} tasks, {suite['failures']} failures, "
        f"jobs={suite['jobs']}, wall={suite['wall_s']:.2f}s"
    )
    executor = suite.get("executor")
    if executor:
        utilization = suite.get("worker_utilization")
        share = suite.get("dispatch_overhead_share")
        lines.append(
            f"executor: {executor['workers']} workers "
            f"({executor['scheduling']}), "
            f"utilization {utilization:.0%}, "
            f"dispatch overhead {suite['dispatch_overhead_s']:.3f}s "
            f"({share:.1%} of task time)"
            if utilization is not None and share is not None
            else f"executor: {executor['workers']} workers "
            f"({executor['scheduling']})"
        )
    if suite.get("serial_wall_s"):
        lines.append(
            f"serial baseline: {suite['serial_wall_s']:.2f}s "
            f"(parallel speedup {suite['parallel_speedup']:.2f}x)"
        )
    elif suite.get("parallel_speedup_reason"):
        lines.append(
            f"parallel speedup: n/a ({suite['parallel_speedup_reason']})"
        )
    probe = report["cache"]["probe"]
    lines.append(
        f"cache: cold build {probe['cold_build_s'] * 1e3:.2f}ms, "
        f"warm hit {probe['warm_hit_s'] * 1e3:.2f}ms "
        f"({probe['hit_speedup']:.0f}x); workers "
        + json.dumps(report["cache"]["workers"], sort_keys=True)
    )
    determinism = report.get("determinism", {})
    if determinism.get("checked"):
        lines.append(
            "determinism: parallel == serial"
            if determinism.get("matches")
            else "determinism: MISMATCH in "
            + ", ".join(determinism.get("mismatches", []))
        )
    return "\n".join(lines)
