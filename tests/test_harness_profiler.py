"""Tests for the phase profiler."""

import time

import pytest

from repro.harness.profiler import PhaseProfiler


class _FakeClock:
    """Deterministic clock: each call advances by preset increments."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def test_single_phase_accumulates_time():
    clock = _FakeClock()
    prof = PhaseProfiler(clock=clock)
    prof.begin("work")
    clock.advance(2.0)
    prof.end("work")
    assert prof.stats["work"].exclusive_time == pytest.approx(2.0)
    assert prof.stats["work"].inclusive_time == pytest.approx(2.0)
    assert prof.stats["work"].calls == 1


def test_nested_phase_excludes_child_time_from_parent():
    clock = _FakeClock()
    prof = PhaseProfiler(clock=clock)
    prof.begin("outer")
    clock.advance(1.0)
    prof.begin("inner")
    clock.advance(3.0)
    prof.end("inner")
    clock.advance(1.0)
    prof.end("outer")
    assert prof.stats["outer"].exclusive_time == pytest.approx(2.0)
    assert prof.stats["outer"].inclusive_time == pytest.approx(5.0)
    assert prof.stats["inner"].exclusive_time == pytest.approx(3.0)


def test_fractions_partition_total():
    clock = _FakeClock()
    prof = PhaseProfiler(clock=clock)
    with prof.phase("a"):
        clock.advance(1.0)
    with prof.phase("b"):
        clock.advance(3.0)
    fracs = prof.fractions()
    assert fracs["a"] == pytest.approx(0.25)
    assert fracs["b"] == pytest.approx(0.75)
    assert sum(fracs.values()) == pytest.approx(1.0)


def test_fraction_of_unknown_phase_is_zero():
    prof = PhaseProfiler()
    with prof.phase("a"):
        pass
    assert prof.fraction("nonexistent") == 0.0


def test_dominant_phase():
    clock = _FakeClock()
    prof = PhaseProfiler(clock=clock)
    with prof.phase("short"):
        clock.advance(0.1)
    with prof.phase("long"):
        clock.advance(5.0)
    assert prof.dominant_phase() == "long"


def test_dominant_phase_empty_is_none():
    assert PhaseProfiler().dominant_phase() is None


def test_mismatched_phase_end_raises():
    prof = PhaseProfiler()
    prof.begin("a")
    with pytest.raises(RuntimeError, match="mismatched"):
        prof.end("b")


def test_end_without_begin_raises():
    prof = PhaseProfiler()
    with pytest.raises(RuntimeError, match="no open phase"):
        prof.end("a")


def test_counters_accumulate():
    prof = PhaseProfiler()
    prof.count("ops", 5)
    prof.count("ops", 7)
    prof.count("other")
    assert prof.counters == {"ops": 12, "other": 1}


def test_reset_clears_state():
    prof = PhaseProfiler()
    with prof.phase("a"):
        pass
    prof.count("n")
    prof.reset()
    assert prof.stats == {}
    assert prof.counters == {}


def test_reset_with_open_phase_raises():
    prof = PhaseProfiler()
    prof.begin("open")
    with pytest.raises(RuntimeError):
        prof.reset()


def test_phase_reentry_accumulates_calls():
    clock = _FakeClock()
    prof = PhaseProfiler(clock=clock)
    for _ in range(3):
        with prof.phase("loop"):
            clock.advance(1.0)
    assert prof.stats["loop"].calls == 3
    assert prof.stats["loop"].exclusive_time == pytest.approx(3.0)


def test_exception_inside_phase_still_closes():
    prof = PhaseProfiler()
    with pytest.raises(ValueError):
        with prof.phase("risky"):
            raise ValueError("boom")
    # Phase closed: a new phase can open and reset works.
    prof.reset()


def test_report_contains_phases_and_counters():
    prof = PhaseProfiler()
    with prof.phase("alpha"):
        pass
    prof.count("widgets", 3)
    report = prof.report()
    assert "alpha" in report
    assert "widgets" in report


def test_total_time_sums_exclusive():
    clock = _FakeClock()
    prof = PhaseProfiler(clock=clock)
    with prof.phase("a"):
        clock.advance(1.0)
        with prof.phase("b"):
            clock.advance(2.0)
    assert prof.total_time() == pytest.approx(3.0)


def test_per_call_min_max_last_track_inclusive_durations():
    clock = _FakeClock()
    prof = PhaseProfiler(clock=clock)
    for dt in (2.0, 5.0, 3.0):
        with prof.phase("loop"):
            clock.advance(dt)
    st = prof.stats["loop"]
    assert st.min_time == pytest.approx(2.0)
    assert st.max_time == pytest.approx(5.0)
    assert st.last_time == pytest.approx(3.0)


def test_min_max_use_inclusive_not_exclusive_time():
    clock = _FakeClock()
    prof = PhaseProfiler(clock=clock)
    with prof.phase("outer"):
        clock.advance(1.0)
        with prof.phase("inner"):
            clock.advance(3.0)
    # The outer call lasted 4s inclusive even though only 1s is exclusive.
    assert prof.stats["outer"].min_time == pytest.approx(4.0)
    assert prof.stats["outer"].max_time == pytest.approx(4.0)
    assert prof.stats["outer"].last_time == pytest.approx(4.0)


def test_min_time_is_inf_before_any_call():
    from repro.harness.profiler import PhaseStats

    st = PhaseStats("fresh")
    assert st.min_time == float("inf")
    assert st.max_time == 0.0
    assert st.last_time == 0.0


def test_fraction_on_profiler_that_never_ran():
    """A fresh profiler (no phases at all) reports 0.0, not an error."""
    prof = PhaseProfiler()
    assert prof.fraction("raycast") == 0.0


def test_fraction_with_zero_total_time():
    clock = _FakeClock()
    prof = PhaseProfiler(clock=clock)
    with prof.phase("instant"):
        pass  # clock never advances: total time is exactly zero
    assert prof.fraction("instant") == 0.0
    assert prof.fraction("other") == 0.0
