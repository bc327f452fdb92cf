"""End-to-end tests for ``run_rt``, the antagonist pool, and the rt CLI."""

from __future__ import annotations

import json

import pytest

from repro.harness.cli import main
from repro.results import evaluate_gates, record_from_rt
from repro.rt.interference import AntagonistPool
from repro.rt.run import run_rt

#: Tiny cem configuration: sub-millisecond jobs keep these tests fast.
CEM_OVERRIDES = dict(iterations=1, samples=3)


def _gate_by_name(record):
    return {r.gate: r for r in evaluate_gates(record)}


@pytest.fixture(scope="module")
def smoke_report():
    """One shared smoke run of cem as a 5ms periodic task."""
    return run_rt(
        "cem",
        period_ms=5.0,
        jobs=8,
        warmup=1,
        smoke=True,
        **CEM_OVERRIDES,
    )


def test_report_header_block(smoke_report):
    rt = smoke_report["rt"]
    assert rt["kernel"] == "15.cem"
    assert rt["stage"] == "control"
    assert rt["period_ms"] == pytest.approx(5.0)
    assert rt["deadline_ms"] == pytest.approx(5.0)  # defaults to the period
    assert rt["jobs"] == 8
    assert rt["smoke"] is True
    assert not rt["calibrated"]


def test_report_has_quantiles_jitter_miss_rate_and_verdict(smoke_report):
    unloaded = smoke_report["conditions"]["unloaded"]
    assert unloaded["jobs"] == 8
    for block in ("response_ms", "latency_ms", "roi_ms"):
        assert unloaded[block]["count"] == 8
        assert (
            unloaded[block]["p50"]
            <= unloaded[block]["p99"]
            <= unloaded[block]["max"]
        )
    assert 0.0 <= unloaded["miss_rate"] <= 1.0
    assert unloaded["jitter_ms"]["max"] >= 0.0
    # The report measures; the rt gates judge the record it becomes.
    assert set(smoke_report) == {"rt", "conditions", "degradation"}
    assert smoke_report["degradation"] is None


def test_report_phase_breakdown_uses_shared_profiler_stats(smoke_report):
    breakdown = smoke_report["conditions"]["unloaded"]["phase_breakdown"]
    assert breakdown["dominant"] in breakdown["phases"]
    for stats in breakdown["phases"].values():
        assert stats["calls"] == 8
        assert stats["min_ms"] <= stats["mean_ms"] <= stats["max_ms"]
    assert sum(s["share"] for s in breakdown["phases"].values()) == (
        pytest.approx(1.0)
    )


def test_smoke_records_are_gate_exempt(smoke_report):
    record = record_from_rt(smoke_report)
    assert record.has_tag("smoke")
    outcomes = evaluate_gates(record)
    assert outcomes and all(r.status == "skip" for r in outcomes)


def test_rt_record_measurements(smoke_report):
    record = record_from_rt(smoke_report)
    assert record.kind == "rt"
    assert record.metric("rt.period_ms") == pytest.approx(5.0)
    assert record.metric("slo.pass") is None
    assert record.metric("unloaded.response_p99_ms") > 0.0
    assert record.metric("unloaded.miss_rate") is not None
    assert record.provenance["kernel"] == "15.cem"


def test_default_period_comes_from_config_table():
    from repro.harness.config import rt_defaults

    report = run_rt(
        "cem", jobs=2, warmup=0, smoke=True, **CEM_OVERRIDES
    )
    assert report["rt"]["period_ms"] == pytest.approx(
        rt_defaults("15.cem").period_ms
    )


def test_zero_period_auto_calibrates():
    report = run_rt(
        "cem", period_ms=0, jobs=2, warmup=0, smoke=True, **CEM_OVERRIDES
    )
    assert report["rt"]["calibrated"]
    assert report["rt"]["period_ms"] > 0.0


def test_slo_gate_flags_failed_slo():
    report = run_rt(
        "cem",
        period_ms=5.0,
        deadline_ms=0.0001,  # impossible deadline: every job misses
        jobs=3,
        warmup=0,
        smoke=False,
        **CEM_OVERRIDES,
    )
    assert report["conditions"]["unloaded"]["miss_rate"] == 1.0
    by_name = _gate_by_name(record_from_rt(report))
    assert by_name["rt.miss-rate-ceiling"].failed


def test_interference_gate_flags_non_degrading_interference():
    report = {
        "rt": {"period_ms": 5.0, "deadline_ms": 5.0, "smoke": False},
        "conditions": {"unloaded": {"miss_rate": 0.0}},
        "degradation": {"p50_ratio": 1.0, "p99_ratio": 0.98,
                        "miss_rate_delta": 0.0},
    }
    by_name = _gate_by_name(record_from_rt(report))
    assert by_name["rt.miss-rate-ceiling"].passed
    assert by_name["rt.interference-degrades"].failed


def test_interference_gate_skips_unloaded_only_run():
    report = {
        "rt": {"period_ms": 5.0, "deadline_ms": 5.0, "smoke": False},
        "conditions": {},
        "degradation": None,
    }
    by_name = _gate_by_name(record_from_rt(report))
    assert by_name["rt.interference-degrades"].status == "skip"


def test_unknown_kernel_raises():
    with pytest.raises(KeyError):
        run_rt("no-such-kernel", jobs=1, smoke=True)


def test_batch_kernel_runs_one_episode_per_job():
    """A batch kernel's job is a one-step session on its own workload;
    the warmup job's episode is counted but its phases are not."""
    from repro.harness.runner import run_kernel

    report = run_rt("16.bo", smoke=True, warmup=1)
    rt = report["rt"]
    unloaded = report["conditions"]["unloaded"]
    assert rt["steps_per_episode"] == 1
    assert unloaded["episodes"] == rt["jobs"] + rt["warmup"]
    assert unloaded["last_episode_steps"] == 1
    per_run = run_kernel("16.bo").profiler.stats
    phases = unloaded["phase_breakdown"]["phases"]
    assert phases.keys() == per_run.keys()
    for name, stats in phases.items():
        assert stats["calls"] == rt["jobs"] * per_run[name].calls, name


# -- step granularity ----------------------------------------------------------


#: Tiny dmp configuration: ~0.03ms steps, 31 steps per episode.
DMP_OVERRIDES = dict(demo_steps=60, dt=0.05, basis=8)


@pytest.fixture(scope="module")
def step_report():
    """One shared per-step smoke run of dmp paced at 2ms."""
    return run_rt(
        "dmp",
        period_ms=2.0,
        jobs=12,
        warmup=2,
        smoke=True,
        granularity="step",
        **DMP_OVERRIDES,
    )


def test_step_report_declares_granularity(step_report):
    rt = step_report["rt"]
    assert rt["granularity"] == "step"
    assert rt["steps_per_episode"] > 1
    assert rt["deadline_ms"] == pytest.approx(2.0)  # defaults to period


def test_step_report_latencies_are_per_step(step_report):
    unloaded = step_report["conditions"]["unloaded"]
    assert unloaded["jobs"] == 12
    assert unloaded["response_ms"]["count"] == 12
    # One dmp Euler step is far quicker than a full batch rollout.
    assert unloaded["roi_ms"]["p50"] < 1.0


def test_step_report_tracks_episode_reopening(step_report):
    unloaded = step_report["conditions"]["unloaded"]
    steps_per_episode = step_report["rt"]["steps_per_episode"]
    total_steps = 12 + 2  # measured + warmup jobs, one step each
    import math

    assert unloaded["episodes"] == math.ceil(total_steps / steps_per_episode)
    assert 0 < unloaded["last_episode_steps"] <= steps_per_episode


def test_step_warmup_stays_out_of_the_phase_breakdown(step_report):
    phases = step_report["conditions"]["unloaded"]["phase_breakdown"]
    # One rollout integration per measured step; the 2 warmup steps'
    # integrations are left out, as run granularity leaves out its
    # warmup runs.
    assert phases["phases"]["integrate"]["calls"] == 12


def test_step_record_mints_step_measurements(step_report):
    record = record_from_rt(step_report)
    unloaded = step_report["conditions"]["unloaded"]
    # The unloaded p99 and miss rate are minted once, under unloaded.*;
    # a step record adds only the p99's share of the deadline.
    assert [n for n in record.metric_names() if n.startswith("rt.step.")] == [
        "rt.step.p99_deadline_ratio"
    ]
    assert record.metric("unloaded.miss_rate") == pytest.approx(
        unloaded["miss_rate"]
    )
    assert record.metric("rt.step.p99_deadline_ratio") == pytest.approx(
        unloaded["response_ms"]["p99"] / step_report["rt"]["deadline_ms"]
    )
    assert record.provenance["granularity"] == "step"


def test_run_granularity_records_omit_step_measurements(smoke_report):
    record = record_from_rt(smoke_report)
    record.tags.remove("smoke")  # judge it as a full run would be
    assert record.metric("rt.step.p99_deadline_ratio") is None
    assert record.provenance["granularity"] == "run"
    # The step gate steps aside instead of failing on run-mode records.
    by_name = _gate_by_name(record)
    assert by_name["rt.step-p99-deadline-ceiling"].status == "skip"
    assert "absent" in by_name["rt.step-p99-deadline-ceiling"].reason


def test_step_granularity_calibrates_from_step_times():
    report = run_rt(
        "dmp",
        period_ms=0,
        jobs=4,
        warmup=0,
        smoke=True,
        granularity="step",
        **DMP_OVERRIDES,
    )
    assert report["rt"]["calibrated"]
    # Calibration keys off single-step latency, not whole-episode time:
    # even with headroom it lands far under the ~100x longer batch rollout.
    assert 0.0 < report["rt"]["period_ms"] < 100.0


def test_step_granularity_on_batch_kernel_is_rejected():
    with pytest.raises(ValueError, match="not steppable"):
        run_rt("16.bo", jobs=1, smoke=True, granularity="step")


def test_unknown_granularity_is_rejected():
    with pytest.raises(ValueError, match="granularity"):
        run_rt("dmp", jobs=1, smoke=True, granularity="icp")


@pytest.mark.parametrize(
    "option,value",
    [
        ("period_ms", -5.0),
        ("period_ms", float("nan")),
        ("period_ms", float("inf")),
        ("deadline_ms", 0.0),
        ("deadline_ms", -1.0),
        ("deadline_ms", float("nan")),
        ("jobs", 0),
        ("warmup", -4),
        ("antagonists", -3),
    ],
)
def test_bad_run_options_are_rejected_before_any_job(
    monkeypatch, option, value
):
    def no_job(*args, **kwargs):
        raise AssertionError("a job was built for a bad option")

    monkeypatch.setattr("repro.rt.run.SessionJob", no_job)
    with pytest.raises(ValueError, match=option):
        run_rt("cem", smoke=True, **{option: value})


# -- interference --------------------------------------------------------------


@pytest.mark.parametrize("kind", ["cpu", "membw", "mixed"])
def test_antagonist_pool_starts_and_stops(kind):
    pool = AntagonistPool(2, kind=kind)
    try:
        pool.start()
        assert pool.alive_count() == 2
    finally:
        pool.stop()
    assert pool.alive_count() == 0


def test_antagonist_pool_context_manager():
    with AntagonistPool(1, kind="cpu") as pool:
        assert pool.alive_count() == 1
    assert pool.alive_count() == 0


def test_antagonist_pool_zero_count_is_noop():
    with AntagonistPool(0) as pool:
        assert pool.alive_count() == 0


def test_antagonist_pool_rejects_bad_arguments():
    with pytest.raises(ValueError, match="kind"):
        AntagonistPool(1, kind="quantum")
    with pytest.raises(ValueError, match="count"):
        AntagonistPool(-1)


def test_run_rt_with_antagonists_records_both_conditions():
    report = run_rt(
        "cem",
        period_ms=2.0,
        jobs=6,
        warmup=1,
        antagonists=1,
        antagonist_kind="cpu",
        smoke=True,
        **CEM_OVERRIDES,
    )
    assert set(report["conditions"]) == {"unloaded", "loaded"}
    assert report["conditions"]["loaded"]["antagonists"] == 1
    degradation = report["degradation"]
    assert degradation is not None
    assert degradation["p99_ratio"] > 0.0
    assert "miss_rate_delta" in degradation
    record = record_from_rt(report)
    assert record.metric("loaded.response_p99_ms") > 0.0
    assert record.metric("degradation.p99_ratio") == pytest.approx(
        degradation["p99_ratio"]
    )


# -- CLI -----------------------------------------------------------------------


def test_cli_rt_smoke_end_to_end(tmp_path, capsys):
    target = tmp_path / "BENCH_rt.json"
    code = main(
        [
            "rt", "cem", "--smoke", "--jobs", "5", "--period-ms", "5",
            "--deadline-ms", "5", "--output", str(target),
            "--iterations", "1", "--samples", "3",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "rt 15.cem" in out
    assert "SLO:" not in out
    assert "record stored at" in out
    document = json.loads(target.read_text())
    assert document["kind"] == "rt"
    assert document["schema_version"] >= 2
    assert "unloaded.response_p99_ms" in document["measurements"]
    assert "unloaded.miss_rate" in document["measurements"]
    # The nested report survives as the record's detail payload.
    report = document["detail"]
    assert set(report) == {"rt", "conditions", "degradation"}
    unloaded = report["conditions"]["unloaded"]
    for key in ("p50", "p99", "max"):
        assert key in unloaded["response_ms"]
    assert "jitter_ms" in unloaded
    assert "miss_rate" in unloaded


def test_cli_rt_step_granularity_end_to_end(tmp_path, capsys):
    target = tmp_path / "BENCH_rt_step.json"
    code = main(
        [
            "rt", "dmp", "--smoke", "--granularity", "step",
            "--jobs", "6", "--warmup", "1",
            "--period-ms", "2", "--output", str(target),
            "--demo-steps", "60", "--dt", "0.05", "--basis", "8",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "per-step" in out
    assert "episodes:" in out
    document = json.loads(target.read_text())
    assert document["measurements"]["rt.step.p99_deadline_ratio"][
        "value"
    ] > 0.0
    assert "unloaded.miss_rate" in document["measurements"]
    assert document["detail"]["rt"]["granularity"] == "step"


def test_cli_rt_step_on_batch_kernel_errors(capsys):
    assert main(["rt", "16.bo", "--smoke", "--granularity", "step"]) == 2
    assert "not steppable" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag,value,option",
    [
        ("--period-ms", "-1", "period_ms"),
        ("--deadline-ms", "0", "deadline_ms"),
        ("--jobs", "0", "jobs"),
        ("--warmup", "-1", "warmup"),
    ],
)
def test_cli_rt_bad_option_exits_2_naming_it(capsys, flag, value, option):
    assert main(["rt", "cem", "--smoke", flag, value]) == 2
    assert capsys.readouterr().err.startswith(f"error: {option} must be")


def test_cli_rt_unknown_kernel_errors(capsys):
    assert main(["rt", "doesnotexist"]) == 2
    assert "error" in capsys.readouterr().err


def test_cli_rt_impossible_deadline_fails_gates(tmp_path, capsys):
    code = main(
        [
            "rt", "cem", "--jobs", "3", "--warmup", "0",
            "--period-ms", "5", "--deadline-ms", "0.0001",
            "--output", str(tmp_path / "r.json"),
            "--iterations", "1", "--samples", "3",
        ]
    )
    assert code == 1
    assert "GATE FAILURE rt.miss-rate-ceiling" in capsys.readouterr().err


def test_cli_rt_step_impossible_deadline_fails_one_miss_rate_gate(
    tmp_path, capsys
):
    code = main(
        [
            "rt", "dmp", "--granularity", "step", "--jobs", "4",
            "--warmup", "0", "--period-ms", "2", "--deadline-ms", "0.0001",
            "--output", str(tmp_path / "r.json"),
            "--demo-steps", "60", "--dt", "0.05", "--basis", "8",
        ]
    )
    assert code == 1
    failed = [
        line.split()[2].rstrip(":")
        for line in capsys.readouterr().err.splitlines()
        if line.startswith("GATE FAILURE")
    ]
    # One fault, one miss-rate verdict; the p99 also overshoots the
    # deadline, which is its own gate.
    assert failed == ["rt.miss-rate-ceiling", "rt.step-p99-deadline-ceiling"]


def test_cli_rt_has_no_miss_rate_option(capsys):
    # The miss-rate bound lives in the rt.miss-rate-ceiling gate only;
    # the flag falls through to the kernel's options and is refused.
    with pytest.raises(SystemExit) as exc:
        main(["rt", "cem", "--max-miss-rate", "0.5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --max-miss-rate" in (
        capsys.readouterr().err
    )


def test_cli_rt_no_check_suppresses_gate_exit(tmp_path):
    code = main(
        [
            "rt", "cem", "--jobs", "3", "--warmup", "0",
            "--period-ms", "5", "--deadline-ms", "0.0001", "--no-check",
            "--output", str(tmp_path / "r.json"),
            "--iterations", "1", "--samples", "3",
        ]
    )
    assert code == 0
