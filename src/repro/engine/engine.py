"""The phase-pipeline StepEngine.

One step loop for every backend: the engine owns the replicated scalar
logic every driver used to duplicate (vascular-pool dynamics, the global
extravasation-attempt schedule, the pool debit, StepStats assembly, the
time series and per-step work records) and runs the backend's declared
schedule phase by phase, timing each one.  A subclass that keeps that
scalar state per ensemble member overrides the prologue, the pool debit
and the epilogue (:meth:`StepEngine._begin_step` / :meth:`StepEngine._debit`
/ :meth:`StepEngine._finish_step`), never the loop.

Drivers (`SequentialSimCov`, `DistSimCov`, `EnsembleSimCov`) are thin
configuration shims: they build a backend, hand it to an engine, and
re-export the engine's state under their public API.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property, partial
from time import perf_counter

import numpy as np

from repro.core import kernels
from repro.core.stats import StepStats, TimeSeries
from repro.engine.backend import ExecutionBackend
from repro.engine.metrics import PhaseMetrics
from repro.engine.phases import Phase, validate_schedule
from repro.obs.registry import get_registry
from repro.telemetry.tracer import NULL_TRACER


@dataclass
class StepContext:
    """Per-step scratch shared between the engine and the backend.

    The launch contract: when :meth:`StepEngine.run` has another step to
    go it sets ``launch_next``, which ``reduce`` may call as
    ``ctx.launch_next(ctx)`` once ``extravasations`` is final and nothing
    the next step overwrites is still to be read: it debits the pool and
    begins step n+1 (``backend.begin_step`` included), or does nothing and
    returns None while a preemption request is pending."""

    #: Step number being executed.
    step: int
    #: Draws :attr:`attempts`; called at its first read, if any.
    draw_attempts: Callable[[], dict]
    #: The vascular-pool value the attempt schedule was computed from
    #: (post-update, pre-debit; per member on an ensemble).  Remote
    #: backends publish it so detached workers can recompute the identical
    #: schedule locally.
    pool: float | np.ndarray = 0.0
    #: Set by the ``reduce`` phase: the REDUCED_FIELDS vector.
    reduced: np.ndarray | None = None
    #: Set by the ``reduce`` phase (or locally on one block): step totals.
    extravasations: int = 0
    binds: int = 0
    moves: int = 0
    #: The pool after this step's debit (what its stats report); None
    #: until :meth:`StepEngine._debit` has run.
    pool_after: float | np.ndarray | None = None
    #: The launch callable; None when no step follows in this run.
    launch_next: Callable[[StepContext], StepContext | None] | None = None
    #: Free-form backend scratch (cleared every step).
    extras: dict = field(default_factory=dict)

    @classmethod
    def start(cls, params, rng, step: int, pool) -> StepContext:
        """Step ``step``'s context, whose attempts are drawn from ``pool``."""
        draw = partial(kernels.extravasation_attempts, params, rng, step, pool)
        return cls(step=step, draw_attempts=draw, pool=pool)

    @cached_property
    def attempts(self) -> dict:
        """The global, decomposition-independent extravasation-attempt
        schedule, drawn at the first read: a backend whose ranks draw it
        themselves from the published ``(step, pool)`` never pays for it."""
        return self.draw_attempts()


class StepEngine:
    """Executes a declarative phase schedule against an ExecutionBackend."""

    def __init__(
        self,
        backend: ExecutionBackend,
        schedule: tuple[Phase, ...] | None = None,
        tracer=None,
        registry=None,
    ):
        self.backend = backend
        self.params = backend.params
        self.rng = backend.rng
        self.schedule = tuple(schedule if schedule is not None else backend.schedule())
        validate_schedule(self.schedule)
        #: Cumulative per-phase wall-time and invocation counters.
        self.metrics = PhaseMetrics()
        #: Structured-telemetry spigot; the no-op tracer unless a caller
        #: installs a real one.  Each phase is recorded in ``metrics``
        #: and, independently, emitted as a span; the backend sees the
        #: tracer too, for gating/comm counters.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        if self.tracer.enabled:
            backend.tracer = self.tracer
        #: Always-on metrics (:mod:`repro.obs`): instrument handles are
        #: resolved once here so the step loop pays only bound-method
        #: calls.  Unlike the tracer these never record per-event
        #: timelines — just counters/gauges/histograms — which is why
        #: they can afford to be on by default.
        self.registry = registry if registry is not None else get_registry()
        reg = self.registry
        self._obs_steps = reg.counter(
            "simcov_steps_total", "Engine steps executed"
        )
        self._obs_step_seconds = reg.histogram(
            "simcov_step_seconds", "Wall seconds per engine step"
        )
        self._obs_phases = {
            name: (
                reg.histogram(
                    "simcov_phase_seconds",
                    "Wall seconds per engine phase",
                    phase=name,
                ),
                reg.counter(
                    "simcov_phase_skips_total",
                    "Phase executions skipped by the activity gate",
                    phase=name,
                ),
            )
            for name in {ph.name for ph in self.schedule}
        }
        self._obs_active_voxels = reg.gauge(
            "simcov_active_voxels", "Voxels the activity gate considers live"
        )
        #: Set at the first step — constructing an engine must not build or
        #: load the compiled tier — and None from then on.
        self._obs_native = (
            reg.gauge("simcov_native_tier", "1 if the compiled kernel tier is on"),
            reg.gauge(
                "simcov_native_build_seconds",
                "Seconds this process spent building the compiled tier",
            ),
        )
        self.pool = 0.0
        self.step_num = 0
        self.series = TimeSeries()
        #: Per-step records: phase timings + backend extras (ledger deltas,
        #: comm counters, active counts) for the performance model.
        self.step_work: list[dict] = []
        #: Callables invoked with each step's StepStats from :meth:`run`
        #: (streaming consumers: the serving layer's SSE publisher).
        self.step_listeners: list = []
        #: Step-boundary preemption handshake (see :meth:`request_preempt`).
        self._preempt_requested = False
        self.preempted = False
        #: The next step's context once a backend has launched it.
        self._launched: StepContext | None = None

    # -- driver --------------------------------------------------------------

    #: Extra attributes stamped on every phase/step span.
    span_attrs: dict = {}

    def _begin_step(self, t: int) -> StepContext:
        """Vascular pool dynamics (replicated scalar state) + the global
        attempt schedule every backend applies to the voxels it owns."""
        p = self.params
        if t >= p.tcell_initial_delay:
            self.pool += p.tcell_generation_rate
        self.pool -= self.pool / p.tcell_vascular_period
        return StepContext.start(p, self.rng, t, self.pool)

    def _debit(self, ctx: StepContext) -> None:
        """Step ``ctx.step``'s pool debit, run once: by the launch of the
        next step or, when nothing was launched, before :meth:`_finish_step`."""
        self.pool = ctx.pool_after = max(0.0, self.pool - ctx.extravasations)

    def _finish_step(self, ctx: StepContext) -> StepStats:
        """Statistics assembly (identical on every substrate)."""
        stats = StepStats.from_vector(
            ctx.step,
            ctx.reduced,
            pool=ctx.pool_after,
            extravasations=ctx.extravasations,
            binds=ctx.binds,
            moves=ctx.moves,
        )
        self.series.append(stats)
        return stats

    def step(self, more: bool = False) -> StepStats:
        """Advance one timestep; returns (and records) the step's stats.
        ``more``: another step follows, which ``reduce`` may launch."""
        t = self.step_num
        ctx, self._launched = self._launched, None
        if ctx is None:
            ctx = self._begin_step(t)
            self.backend.begin_step(ctx)
        if more:
            # A bound method, never a closure over ctx (a reference cycle).
            ctx.launch_next = self._launch_next

        tracer = self.tracer
        attrs = self.span_attrs
        step_start = perf_counter()
        phase_seconds: dict[str, float] = {}
        obs_phases = self._obs_phases
        for phase in self.schedule:
            start = perf_counter()
            ran = self.backend.execute(phase, ctx)
            elapsed = perf_counter() - start
            skipped = ran is False
            hist, skips = obs_phases[phase.name]
            hist.observe(elapsed)
            if skipped:
                skips.inc()
            self.metrics.record(phase.name, elapsed, skipped=skipped)
            if tracer.enabled:
                tracer.emit_span(
                    phase.name, start, elapsed, cat="phase", step=t,
                    skipped=skipped, **attrs,
                )
            if not skipped:
                phase_seconds[phase.name] = elapsed
        step_elapsed = perf_counter() - step_start
        self._obs_step_seconds.observe(step_elapsed)
        self._obs_steps.inc()
        if tracer.enabled:
            tracer.emit_span(
                "step", step_start, step_elapsed, cat="step", step=t, **attrs,
            )

        if ctx.reduced is None:
            raise RuntimeError(
                f"backend {self.backend.name!r} reduce phase did not set "
                "ctx.reduced"
            )
        if ctx.pool_after is None:
            self._debit(ctx)
        stats = self._finish_step(ctx)
        record = {"step": t, "phase_seconds": phase_seconds}
        record.update(self.backend.step_record(ctx))
        if "active_voxels" in record:
            self._obs_active_voxels.set(record["active_voxels"])
        if self._obs_native is not None:
            # Imported here: the module pulls in subprocess, tempfile, ...
            from repro.core import native

            status = native.status()
            self._obs_native[0].set(float(status["enabled"]))
            self._obs_native[1].set(status["build_seconds"])
            self._obs_native = None
        self.step_work.append(record)
        self.step_num += 1
        return stats

    def _launch_next(self, ctx: StepContext) -> StepContext | None:
        """The launch callable :meth:`step` hands the backend on ``ctx``."""
        if self._preempt_requested:
            return None
        self._debit(ctx)
        nxt = self._begin_step(ctx.step + 1)
        self.backend.begin_step(nxt)
        self._launched = nxt
        return nxt

    # -- step-boundary preemption ---------------------------------------------

    def request_preempt(self) -> None:
        """Ask :meth:`run` to stop before its next step.

        Safe to call from another thread (a bare bool write under the
        GIL): the serving layer's scheduler preempts a long job this way,
        snapshots its state at the quiescent step boundary
        (:func:`repro.io.checkpoint.snapshot_state`) and resumes it later
        — bitwise identically, because no step is ever torn mid-phase.
        """
        self._preempt_requested = True

    def run(self, num_steps: int | None = None) -> TimeSeries:
        """Run ``num_steps`` (default ``params.num_steps``); return the
        accumulated time series.

        Stops early at a step boundary when :meth:`request_preempt` was
        called; ``preempted`` reports whether the last :meth:`run` exited
        that way (the request is consumed either by the break or, when it
        lands after the final step, on return).  A step already launched
        is finished first — the request then stops ``run`` one boundary
        later — so ``run`` never returns with a step in flight.
        """
        n = num_steps if num_steps is not None else self.params.num_steps
        self.preempted = False
        for i in range(n):
            if self._preempt_requested and self._launched is None:
                self._preempt_requested = False
                self.preempted = True
                break
            stats = self.step(more=i + 1 < n)
            for listener in self.step_listeners:
                listener(stats)
        self._preempt_requested = False
        return self.series
