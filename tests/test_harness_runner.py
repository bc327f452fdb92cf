"""Tests for the kernel runner and registry."""

import math
from dataclasses import dataclass, fields

import pytest

from repro.envs import inputsets
from repro.harness.config import KernelConfig, option
from repro.harness.profiler import PhaseProfiler
from repro.harness.runner import (
    Kernel,
    KernelRegistry,
    StepSession,
    load_all_kernels,
    registry,
    run_kernel,
)


@dataclass
class _ToyConfig(KernelConfig):
    value: int = option(3, "A number")


class _ToyKernel(Kernel):
    name = "99.toy"
    stage = "testing"
    config_cls = _ToyConfig

    def setup(self, config):
        return {"prepared": config.value}

    def run_roi(self, config, state, profiler):
        with profiler.phase("compute"):
            return state["prepared"] * 2


def test_kernel_run_produces_result():
    result = _ToyKernel().run(_ToyConfig(value=5))
    assert result.output == 10
    assert result.kernel == "99.toy"
    assert result.roi_time >= 0.0
    assert "compute" in result.profiler.stats


def test_kernel_run_with_default_config():
    result = _ToyKernel().run()
    assert result.output == 6


def test_kernel_run_records_setup_time():
    result = _ToyKernel().run()
    assert result.setup_time >= 0.0
    assert "roi_min_s" not in result.metrics  # single run: no series


def test_kernel_run_repeats_record_series():
    result = _ToyKernel().run(_ToyConfig(value=5, repeats=3, warmup=1))
    assert result.output == 10  # final repeat's output, deterministic
    assert result.metrics["roi_repeats"] == 3.0
    assert result.metrics["roi_min_s"] <= result.metrics["roi_median_s"]
    assert result.metrics["roi_min_s"] <= result.roi_time


def test_run_roi_must_be_overridden():
    class Bare(Kernel):
        pass

    with pytest.raises(NotImplementedError):
        Bare().run()


def test_registry_register_and_get():
    reg = KernelRegistry()
    reg.register(_ToyKernel)
    assert reg.get("99.toy") is _ToyKernel
    assert reg.get("toy") is _ToyKernel  # suffix lookup


def test_registry_duplicate_raises():
    reg = KernelRegistry()
    reg.register(_ToyKernel)
    with pytest.raises(ValueError, match="duplicate"):
        reg.register(_ToyKernel)


def test_registry_unknown_raises():
    reg = KernelRegistry()
    with pytest.raises(KeyError):
        reg.get("nope")


def test_registry_unknown_suggests_close_matches():
    load_all_kernels()
    with pytest.raises(KeyError, match="did you mean") as exc:
        registry.get("rrtt")
    assert "rrt" in str(exc.value)
    with pytest.raises(KeyError, match="did you mean") as exc:
        registry.get("pfll")
    assert "pfl" in str(exc.value)


def test_registry_unknown_without_close_match_has_no_hint():
    load_all_kernels()
    with pytest.raises(KeyError) as exc:
        registry.get("zzzzzzz")
    assert "did you mean" not in str(exc.value)


def test_registry_ambiguous_suffix_lists_candidates():
    @dataclass
    class _OtherToyConfig(KernelConfig):
        value: int = option(1, "A number")

    class _OtherToy(Kernel):
        name = "98.toy"
        stage = "testing"
        config_cls = _OtherToyConfig

        def run_roi(self, config, state, profiler):
            return None

    reg = KernelRegistry()
    reg.register(_ToyKernel)
    reg.register(_OtherToy)
    with pytest.raises(KeyError, match="ambiguous") as exc:
        reg.get("toy")
    assert "98.toy" in str(exc.value)
    assert "99.toy" in str(exc.value)


def test_full_suite_registration():
    """All sixteen paper kernels register under their Table I names."""
    load_all_kernels()
    names = registry.names()
    expected = [
        "01.pfl", "02.ekfslam", "03.srec", "04.pp2d", "05.pp3d",
        "06.movtar", "07.prm", "08.rrt", "09.rrtstar", "10.rrtpp",
        "11.sym-blkw", "12.sym-fext", "13.dmp", "14.mpc", "15.cem", "16.bo",
    ]
    for name in expected:
        assert name in names


def test_stages_partition_the_suite():
    load_all_kernels()
    perception = registry.by_stage("perception")
    planning = registry.by_stage("planning")
    control = registry.by_stage("control")
    assert len(perception) == 3
    assert len(planning) == 10  # the paper's 9 + the rrtconnect extension
    assert len(control) == 4


#: Each kernel's one optimized tier; every other kernel runs
#: ``reference`` only.
_OPTIMIZED_TIER = {
    "01.pfl": "vectorized",
    "03.srec": "vectorized",
    "04.pp2d": "array",
    "05.pp3d": "array",
    "06.movtar": "array",
    "08.rrt": "array",
    "09.rrtstar": "array",
    "10.rrtpp": "array",
    "17.rrtconnect": "array",
}

load_all_kernels()


@pytest.mark.parametrize("name", registry.names())
def test_kernel_rejects_backends_it_does_not_have(name):
    cls = registry.get(name)
    tier = _OPTIMIZED_TIER.get(name)
    assert cls.backends == ("reference",) + ((tier,) if tier else ())
    for backend in ("gpu", "vectorized", "array"):
        if backend in cls.backends:
            continue
        config = cls.config_cls(backend=backend)
        accepted = " | ".join(repr(b) for b in cls.backends)
        with pytest.raises(ValueError, match=f"accepted: {accepted}$"):
            cls().run(config)
        with pytest.raises(ValueError, match=f"{backend!r}"):
            cls().open_session(config)


_NAN = float("nan")

#: (kernel, option, value) configs that each kernel must refuse before
#: its setup runs: values that once crashed deep in setup or the ROI,
#: or returned NaN or an empty measurement as if it were a result.
_REJECTED = [
    ("02.ekfslam", "steps", 0), ("02.ekfslam", "dt", 0.0),
    ("02.ekfslam", "landmarks", 0), ("02.ekfslam", "bearing_sigma", 0.0),
    ("02.ekfslam", "range_sigma", _NAN), ("02.ekfslam", "seed", -1),
    ("03.srec", "icp_iterations", 0), ("03.srec", "scene_points", 0),
    ("03.srec", "noise_sigma", -0.1),
    ("04.pp2d", "car_length", 0.0), ("04.pp2d", "car_width", -1.0),
    ("04.pp2d", "resolution", _NAN), ("04.pp2d", "epsilon", 0.5),
    ("05.pp3d", "nx", 0), ("06.movtar", "rows", 0),
    ("06.movtar", "horizon", 0), ("06.movtar", "bumps", -1),
    ("07.prm", "map", "cluttered"), ("08.rrt", "seed", -1),
    ("08.rrt", "epsilon", float("inf")), ("08.rrt", "map", "MAP_F"),
    ("11.sym-blkw", "goal", "tower"), ("12.sym-fext", "epsilon", 0.5),
    ("13.dmp", "dt", 0.0), ("13.dmp", "k_gain", -5.0),
    ("14.mpc", "steps", 0), ("14.mpc", "speed", _NAN),
    ("15.cem", "iterations", 0), ("15.cem", "samples", 0),
    ("15.cem", "goal_x", _NAN), ("15.cem", "seed", -1),
    ("16.bo", "candidates", 0), ("16.bo", "iterations", 0),
    ("16.bo", "beta", _NAN), ("16.bo", "acquisition", "pi"),
    ("01.pfl", "map_rows", 0), ("01.pfl", "repeats", 0),
    ("01.pfl", "warmup", -1),
]


@pytest.mark.parametrize("name, field_name, value", _REJECTED)
def test_kernel_rejects_bad_option_before_setup(
    name, field_name, value, monkeypatch
):
    cls = registry.get(name)

    def no_setup(self, config):
        raise AssertionError("setup ran")

    monkeypatch.setattr(cls, "setup", no_setup)
    config = cls.config_cls(**{field_name: value})
    with pytest.raises(ValueError, match=f"{name} needs {field_name} "):
        cls().run(config)
    with pytest.raises(ValueError, match=f"{name} needs {field_name} "):
        cls().open_session(config)


def _bounded_values(f):
    """Each value on the edge of option ``f``'s declared bounds, plus
    whether it is accepted (an exclusive ``above`` bound is not)."""
    meta = f.metadata
    for key in ("at_least", "at_most"):
        if meta.get(key) is not None:
            yield type(f.default)(meta[key]), True
    if meta.get("above") is not None:
        bound = float(meta["above"])
        yield bound, False
        yield math.nextafter(bound, math.inf), True
    for choice in meta.get("choices") or ():
        yield choice, True


@pytest.mark.parametrize("name", registry.names())
def test_declared_bounds_are_inclusive_at_their_edges(name):
    cls = registry.get(name)
    edges = 0
    for f in fields(cls.config_cls):
        for value, accepted in _bounded_values(f):
            edges += 1
            config = cls.config_cls(**{f.name: value})
            if accepted:
                cls.check_config(config)
            else:
                with pytest.raises(ValueError, match=f"needs {f.name} "):
                    cls.check_config(config)
    assert edges >= 4  # seed, repeats, warmup and the kernel's own


@pytest.mark.parametrize("name", registry.names())
def test_every_inputset_and_backend_passes_the_check(name):
    cls = registry.get(name)
    presets = inputsets.INPUTSETS[name.split(".", 1)[1]]
    for overrides in presets.values():
        for backend in cls.backends:
            cls.check_config(cls.config_cls(backend=backend, **overrides))


def test_run_kernel_with_overrides():
    result = run_kernel("cem", iterations=2, samples=4, seed=1)
    assert result.config.iterations == 2
    assert result.output["best_reward"] <= 0.0


def test_run_kernel_override_on_config():
    load_all_kernels()
    cls = registry.get("cem")
    config = cls.config_cls(iterations=1, samples=3)
    result = run_kernel("cem", config=config, seed=2)
    assert result.config.seed == 2
    assert result.config.iterations == 1


# -- steppable protocol --------------------------------------------------------


@dataclass
class _SteppableConfig(KernelConfig):
    steps: int = option(4, "Iterations per episode")


class _SteppableKernel(Kernel):
    name = "97.steppable-toy"
    stage = "testing"
    config_cls = _SteppableConfig

    def setup(self, config):
        return list(range(config.steps))

    def begin_roi(self, config, state, profiler):
        return {"acc": 0}

    def num_steps(self, config, state):
        return len(state)

    def step(self, index, session, profiler):
        with profiler.phase("compute"):
            session.payload["acc"] += session.state[index]
            profiler.count("steps", 1)

    def finalize(self, session):
        return {"total": session.payload["acc"]}


def test_is_steppable_flag():
    assert _SteppableKernel.is_steppable()
    assert not _ToyKernel.is_steppable()  # batch kernel: no step override


def test_batch_kernel_acts_as_single_step_session():
    """A batch kernel is a degenerate steppable kernel with one step."""
    kernel = _ToyKernel()
    session = kernel.open_session(_ToyConfig(value=4))
    assert session.total_steps == 1
    assert not session.exhausted
    session.step()
    assert session.exhausted
    assert session.finish() == 8


def test_steppable_kernel_inherited_run_roi_drives_all_steps():
    kernel = _SteppableKernel()
    config = _SteppableConfig(steps=5)
    profiler = PhaseProfiler()
    output = kernel.run_roi(config, kernel.setup(config), profiler)
    assert output == {"total": 0 + 1 + 2 + 3 + 4}
    assert profiler.counters["steps"] == 5


def test_open_session_defaults_and_manual_stepping():
    session = _SteppableKernel().open_session()
    assert isinstance(session, StepSession)
    assert session.total_steps == 4
    indices = []
    while not session.exhausted:
        indices.append(session.step())
    assert indices == [0, 1, 2, 3]
    assert session.finish() == {"total": 6}


def test_session_refuses_steps_past_exhaustion_or_finalize():
    session = _SteppableKernel().open_session(_SteppableConfig(steps=1))
    session.step()
    with pytest.raises(RuntimeError, match="beyond the episode"):
        session.step()
    first = session.finish()
    assert session.finish() is first  # idempotent
    with pytest.raises(RuntimeError, match="finalized"):
        session.step()


def test_steppable_kernel_runs_through_standard_runner():
    result = _SteppableKernel().run(_SteppableConfig(steps=3))
    assert result.output == {"total": 3}
    assert result.profiler.counters["steps"] == 3


def test_repeats_report_mean_alongside_median():
    result = _ToyKernel().run(_ToyConfig(value=2, repeats=3, warmup=0))
    assert result.metrics["roi_mean_s"] > 0.0
    assert result.metrics["roi_min_s"] <= result.metrics["roi_mean_s"]
    assert result.metrics["roi_repeats"] == 3.0
