"""Tests for text reporting."""

from repro.harness.profiler import PhaseProfiler
from repro.harness.reporting import (
    characterization_table,
    format_table,
    render_record,
    result_summary,
)
from repro.harness.runner import KernelResult


def _fake_result() -> KernelResult:
    prof = PhaseProfiler()
    with prof.phase("collision"):
        pass
    with prof.phase("search"):
        pass
    return KernelResult(
        kernel="04.pp2d",
        stage="planning",
        output=None,
        profiler=prof,
        roi_time=0.5,
        metrics={"cost": 12.5},
    )


def test_format_table_alignment():
    text = format_table(["a", "bb"], [["1", "2"], ["333", "4"]])
    lines = text.splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("a")
    assert "---" in lines[1]


def test_format_table_empty_rows():
    text = format_table(["x"], [])
    assert "x" in text


def test_result_summary_mentions_kernel_and_metrics():
    text = result_summary(_fake_result())
    assert "04.pp2d" in text
    assert "cost" in text
    assert "ROI time" in text


def test_characterization_table_lists_dominant():
    text = characterization_table([_fake_result()])
    assert "04.pp2d" in text
    assert "planning" in text


def test_render_record_keeps_the_dirty_mark():
    from repro.results import EnvironmentFingerprint, record_from_bench

    sha = "0123456789abcdef0123456789abcdef01234567"
    for git_sha, shown in ((sha, "git 0123456789ab,"),
                           (f"{sha}-dirty", "git 0123456789ab-dirty,")):
        record = record_from_bench(
            {"nn": {"speedup": 3.0}},
            env=EnvironmentFingerprint(git_sha=git_sha),
        )
        assert shown in render_record(record)
