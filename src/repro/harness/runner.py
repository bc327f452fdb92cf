"""Kernel runner protocol and registry.

Every RTRBench kernel is exposed as a :class:`Kernel` subclass that knows
its pipeline stage, its configuration dataclass, and how to run itself
under a :class:`~repro.harness.profiler.PhaseProfiler`.  The registry maps
the paper's kernel names (``01.pfl`` ... ``16.bo``) to implementations so
experiments and the ``rtrbench`` CLI can enumerate the whole suite.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple, Type

from repro.harness.config import KernelConfig, check_options
from repro.harness.profiler import PhaseProfiler
from repro.harness.roi import roi_begin, roi_end


@dataclass
class KernelResult:
    """Outcome of one kernel run.

    ``output`` is kernel-specific (a path, an estimate trace, a policy...);
    ``profiler`` holds the phase breakdown measured inside the ROI;
    ``roi_time`` is the wall-clock duration of the region of interest and
    ``setup_time`` the wall clock of workload construction outside it.
    With ``config.repeats > 1`` both reflect the final measured repeat,
    and ``metrics`` gains ``roi_min_s`` / ``roi_median_s`` /
    ``roi_mean_s`` / ``roi_repeats`` summarizing the whole series.
    """

    kernel: str
    stage: str
    output: Any
    profiler: PhaseProfiler
    roi_time: float
    config: Optional[KernelConfig] = None
    metrics: Dict[str, float] = field(default_factory=dict)
    setup_time: float = 0.0

    def fraction(self, phase: str) -> float:
        """Convenience passthrough to the profiler's phase share."""
        return self.profiler.fraction(phase)


@dataclass
class StepSession:
    """One in-progress ROI execution, advanced one :meth:`step` at a time.

    A session pins the episode-scoped pieces together: the kernel, its
    configuration and workload ``state``, the profiler every step reports
    into, and ``payload`` — whatever :meth:`Kernel.begin_roi` built (the
    live filter, the controller's tracking state, ...).  ``steps_done``
    advances monotonically; once :attr:`exhausted`, :meth:`finish` runs
    the kernel's ``finalize`` exactly once and caches ``output``.

    The batch path (``Kernel.run_roi`` of a steppable kernel) and every
    real-time job (:mod:`repro.rt.run`) drive the same session object,
    so both produce bitwise-identical outputs from identical
    configurations.
    """

    kernel: "Kernel"
    config: KernelConfig
    state: Any
    profiler: PhaseProfiler
    payload: Any = None
    total_steps: int = 1
    steps_done: int = 0
    output: Any = None
    finalized: bool = False

    @property
    def exhausted(self) -> bool:
        """True once every step of this episode has run."""
        return self.steps_done >= self.total_steps

    def step(self) -> int:
        """Run the next iteration; returns the index it executed."""
        if self.finalized:
            raise RuntimeError("step() on a finalized session")
        if self.exhausted:
            raise RuntimeError(
                f"step() beyond the episode: {self.steps_done}/"
                f"{self.total_steps} steps already ran"
            )
        index = self.steps_done
        self.kernel.step(index, self, self.profiler)
        self.steps_done += 1
        return index

    def finish(self) -> Any:
        """Finalize the episode (idempotent); returns the kernel output."""
        if not self.finalized:
            self.output = self.kernel.finalize(self)
            self.finalized = True
        return self.output


class Kernel:
    """Base class for suite kernels.

    Subclasses set :attr:`name` (paper id, e.g. ``"04.pp2d"``),
    :attr:`stage` (``perception`` / ``planning`` / ``control``), and
    :attr:`config_cls`, then implement the measured region one of two
    ways.  Workload construction the paper treats as outside the ROI
    (map loading, offline phases explicitly noted as offline) belongs in
    :meth:`setup` either way.

    *Batch kernels* override :meth:`run_roi`, which receives the
    configuration and a profiler and returns the kernel output in one
    opaque call.

    *Steppable kernels* instead override the per-iteration protocol —
    :meth:`begin_roi` / :meth:`num_steps` / :meth:`step` /
    :meth:`finalize` — and inherit ``run_roi``: the base class drives
    all steps in one loop, so batch execution is just the degenerate
    schedule of the steppable protocol and the two paths cannot drift
    apart.  Conversely a kernel that overrides neither ``step`` nor
    ``run_roi`` is incomplete, and the base ``run_roi`` raises
    ``NotImplementedError`` rather than recursing into the single-step
    fallback.

    :attr:`backends` lists the ``config.backend`` values the kernel
    implements: ``reference`` plus at most one optimized tier.  Every
    entry point (:meth:`run`, :meth:`open_session`) passes the config
    through :meth:`check_config` once, before building the workload, which
    rejects any other backend and any option outside the bounds its
    :func:`~repro.harness.config.option` declaration gives.
    """

    name: str = "kernel"
    stage: str = "unknown"
    config_cls: Type[KernelConfig] = KernelConfig
    description: str = ""
    backends: Tuple[str, ...] = ("reference",)

    @classmethod
    def is_steppable(cls) -> bool:
        """True when the kernel implements the per-iteration protocol."""
        return cls.step is not Kernel.step

    @classmethod
    def check_config(cls, config: KernelConfig) -> None:
        """Reject a config this kernel cannot run (``ValueError``).

        A ``config.backend`` outside :attr:`backends` is rejected first,
        then any option outside its declared bounds
        (:func:`~repro.harness.config.check_options`).
        """
        if config.backend not in cls.backends:
            accepted = " | ".join(repr(b) for b in cls.backends)
            raise ValueError(
                f"kernel {cls.name} has no backend {config.backend!r}; "
                f"accepted: {accepted}"
            )
        check_options(config, cls.name)

    def setup(self, config: KernelConfig) -> Any:
        """Build the workload (outside the ROI).  Returns setup state."""
        return None

    def begin_roi(
        self, config: KernelConfig, state: Any, profiler: PhaseProfiler
    ) -> Any:
        """Build episode-scoped objects (inside the ROI); returns payload.

        Runs once per episode, before the first :meth:`step`.  Anything
        the steps mutate — the live filter, the solver, accumulators —
        belongs here rather than in :meth:`setup`, so reopening a session
        on the same workload state replays the episode from scratch.
        """
        return None

    def num_steps(self, config: KernelConfig, state: Any) -> int:
        """How many iterations one episode runs (1 for batch kernels)."""
        return 1

    def step(
        self, index: int, session: StepSession, profiler: PhaseProfiler
    ) -> None:
        """Run iteration ``index`` of the episode.

        The base implementation makes every batch kernel a single-step
        steppable: the whole ``run_roi`` body is the one step.
        """
        session.output = self.run_roi(
            session.config, session.state, profiler
        )

    def finalize(self, session: StepSession) -> Any:
        """Assemble the kernel output after the last step."""
        return session.output

    def open_session(
        self,
        config: Optional[KernelConfig] = None,
        state: Any = None,
        profiler: Optional[PhaseProfiler] = None,
    ) -> StepSession:
        """Start one episode: run ``begin_roi`` and size the step count.

        ``state=None`` builds the workload via :meth:`setup` first (an
        explicit ``state`` lets callers reuse one workload across many
        episodes — the per-step real-time mode).  The config passes
        :meth:`check_config` first.
        """
        if config is None:
            config = self.config_cls()
        self.check_config(config)
        return self._begin_session(config, state, profiler)

    def _begin_session(
        self,
        config: KernelConfig,
        state: Any,
        profiler: Optional[PhaseProfiler],
    ) -> StepSession:
        """:meth:`open_session` after its check: the one place a session
        is built.  The inherited :meth:`run_roi` comes here directly,
        because :meth:`run` checked the config before timing the ROI."""
        if state is None:
            state = self.setup(config)
        if profiler is None:
            profiler = PhaseProfiler()
        session = StepSession(
            kernel=self, config=config, state=state, profiler=profiler
        )
        session.payload = self.begin_roi(config, state, profiler)
        session.total_steps = int(self.num_steps(config, state))
        return session

    def run_roi(
        self, config: KernelConfig, state: Any, profiler: PhaseProfiler
    ) -> Any:
        """Execute the measured region.

        Steppable kernels inherit this: it opens a session (without a
        second :meth:`check_config`) and drives every step back-to-back.
        Batch kernels must override it.
        """
        if not self.is_steppable():
            raise NotImplementedError
        session = self._begin_session(config, state, profiler)
        while not session.exhausted:
            session.step()
        return session.finish()

    def _run_once(self, config: KernelConfig) -> KernelResult:
        """One setup + ROI execution under a fresh profiler."""
        t0 = time.perf_counter()
        state = self.setup(config)
        setup_time = time.perf_counter() - t0
        profiler = PhaseProfiler()
        roi_begin(self.name)
        t0 = time.perf_counter()
        output = self.run_roi(config, state, profiler)
        roi_time = time.perf_counter() - t0
        roi_end(self.name)
        return KernelResult(
            kernel=self.name,
            stage=self.stage,
            output=output,
            profiler=profiler,
            roi_time=roi_time,
            config=config,
            setup_time=setup_time,
        )

    def run(self, config: Optional[KernelConfig] = None) -> KernelResult:
        """Set up, execute the ROI, and package results.

        ``config.warmup`` untimed executions precede ``config.repeats``
        measured ones; each repeat rebuilds its workload from the same
        configuration (cheap once the setup cache is warm) so repeats are
        independent and identically distributed.  The returned result is
        the final repeat's — deterministic kernels produce the same output
        every repeat — with the ROI wall-clock series summarized in
        ``metrics``.
        """
        if config is None:
            config = self.config_cls()
        self.check_config(config)
        for _ in range(config.warmup):
            self._run_once(config)
        roi_times: List[float] = []
        for _ in range(config.repeats):
            result = self._run_once(config)
            roi_times.append(result.roi_time)
        if config.repeats > 1 or config.warmup > 0:
            result.metrics["roi_min_s"] = min(roi_times)
            result.metrics["roi_median_s"] = statistics.median(roi_times)
            result.metrics["roi_mean_s"] = statistics.fmean(roi_times)
            result.metrics["roi_repeats"] = float(config.repeats)
        return result


class KernelRegistry:
    """Name -> kernel class mapping for the whole suite."""

    def __init__(self) -> None:
        self._kernels: Dict[str, Type[Kernel]] = {}

    def register(self, cls: Type[Kernel]) -> Type[Kernel]:
        """Class decorator: add ``cls`` to the registry under ``cls.name``."""
        if cls.name in self._kernels:
            raise ValueError(f"duplicate kernel name {cls.name!r}")
        self._kernels[cls.name] = cls
        return cls

    def unregister(self, name: str) -> None:
        """Remove a kernel by exact name (for tests and plugins)."""
        self._kernels.pop(name, None)

    def get(self, name: str) -> Type[Kernel]:
        """Look up a kernel by exact name or unique suffix (``pp2d``).

        An unknown name raises a ``KeyError`` carrying close-match
        suggestions (full names and bare suffixes), and an ambiguous
        suffix lists every candidate — so a CLI typo like ``rrtt`` or
        ``pfll`` answers with the kernel the user meant instead of a
        bare error.
        """
        if name in self._kernels:
            return self._kernels[name]
        matches = [
            cls
            for key, cls in self._kernels.items()
            if key.split(".", 1)[-1] == name
        ]
        if len(matches) == 1:
            return matches[0]
        if matches:
            candidates = sorted(
                key
                for key in self._kernels
                if key.split(".", 1)[-1] == name
            )
            raise KeyError(
                f"ambiguous kernel name {name!r}; candidates: "
                + ", ".join(candidates)
            )
        import difflib

        vocabulary = sorted(
            set(self._kernels)
            | {key.split(".", 1)[-1] for key in self._kernels}
        )
        close = difflib.get_close_matches(name, vocabulary, n=3, cutoff=0.5)
        hint = f"; did you mean: {', '.join(close)}?" if close else ""
        raise KeyError(f"unknown kernel {name!r}{hint}")

    def names(self) -> List[str]:
        """All registered kernel names, in paper order."""
        return sorted(self._kernels)

    def by_stage(self, stage: str) -> List[Type[Kernel]]:
        """All kernels belonging to one pipeline stage."""
        return [
            self._kernels[name]
            for name in self.names()
            if self._kernels[name].stage == stage
        ]


registry = KernelRegistry()


def run_kernel(
    name: str, config: Optional[KernelConfig] = None, **overrides: Any
) -> KernelResult:
    """Instantiate and run a registered kernel by name.

    ``overrides`` patch fields on the kernel's default configuration,
    mirroring command-line options.  The full suite is imported on first
    use, so callers never need to call :func:`load_all_kernels` first.
    """
    load_all_kernels()
    cls = registry.get(name)
    kernel = cls()
    if config is None:
        config = cls.config_cls(**overrides) if overrides else cls.config_cls()
    elif overrides:
        config = config.replace(**overrides)
    return kernel.run(config)


def load_all_kernels() -> None:
    """Import every kernel module so the full suite is registered."""
    # Imports are local so substrate modules stay importable standalone.
    import repro.perception.particle_filter  # noqa: F401
    import repro.perception.ekf_slam  # noqa: F401
    import repro.perception.scene_recon  # noqa: F401
    import repro.planning.pp2d  # noqa: F401
    import repro.planning.pp3d  # noqa: F401
    import repro.planning.moving_target  # noqa: F401
    import repro.planning.prm  # noqa: F401
    import repro.planning.rrt  # noqa: F401
    import repro.planning.rrt_star  # noqa: F401
    import repro.planning.rrt_postprocess  # noqa: F401
    import repro.planning.rrt_connect  # noqa: F401  (extension kernel)
    import repro.planning.symbolic.kernels  # noqa: F401
    import repro.control.dmp  # noqa: F401
    import repro.control.mpc  # noqa: F401
    import repro.control.cem  # noqa: F401
    import repro.control.bayesopt  # noqa: F401
