"""The phase-pipeline StepEngine.

One step loop for every backend: the engine owns the replicated scalar
logic every driver used to duplicate (vascular-pool dynamics, the global
extravasation-attempt schedule, the pool debit, the time series and
per-step work records) and runs the backend's declared schedule phase by
phase, timing each one.  On a batched backend (one with a ``batch``) the
same expressions carry the member axis: the pool is a ``(B,)`` vector and
each series entry holds every member's row.

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
    #: Makes :attr:`attempts`; called at its first read, if any.
    draw_attempts: Callable[[], kernels.Attempts]
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
    def attempts(self) -> kernels.Attempts:
        """The global, decomposition-independent extravasation-attempt
        schedule, made at the first read and drawn at the first read of
        its arrays — which the compiled pass never makes: it draws each
        attempt itself.  A backend whose ranks draw it themselves from the
        published ``(step, pool)`` never pays for it."""
        return self.draw_attempts()


class StepEngine:
    """Runs an ExecutionBackend's phase schedule, one step at a time."""

    def __init__(
        self,
        backend: ExecutionBackend,
        tracer=None,
        registry=None,
    ):
        self.backend = backend
        self.params = backend.params
        self.rng = backend.rng
        self.schedule = backend.schedule()
        #: The one table each phase is timed into, a row per phase.
        self.metrics = PhaseMetrics(ph.name for ph in self.schedule)
        #: Structured-telemetry spigot; the no-op tracer unless a caller
        #: installs a real one.  Each phase is recorded in ``metrics``
        #: and, independently, emitted as a span; the backend sees the
        #: tracer too, for the spans it records itself (barrier waits).
        self.tracer = tracer if tracer is not None else NULL_TRACER
        if self.tracer.enabled:
            backend.tracer = self.tracer
        #: Always-on metrics (:mod:`repro.obs`): the registry reads the
        #: phase and step families from ``metrics`` when exposed.
        self.registry = reg = registry if registry is not None else get_registry()
        reg.track_phases(self, self.metrics)
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
        batch = getattr(backend, "batch", None)
        #: The vascular T-cell pool: a float, or one per member of a batch.
        self.pool = 0.0 if batch is None else np.zeros(batch)
        #: Its parameters; a sweep's ``(B, 1, ..., 1)`` values as ``(B,)``.
        self._pool_params = tuple(
            np.reshape(v, -1) if np.ndim(v) else v
            for v in (
                self.params.tcell_initial_delay,
                self.params.tcell_generation_rate,
                self.params.tcell_vascular_period,
            )
        )
        self.step_num = 0
        self.series = TimeSeries(batch)
        #: Per-step records: the backend's extras (active counts) for the
        #: performance model.
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

    def _begin_step(self, t: int) -> StepContext:
        """Vascular pool dynamics (replicated scalar state) + the global
        attempt schedule every backend applies to the voxels it owns.
        Before its delay a member's pool gains an exact ``+0.0``."""
        delay, rate, period = self._pool_params
        pool = self.pool + rate * (t >= delay)
        self.pool = pool = pool - pool / period
        return StepContext.start(self.params, self.rng, t, pool)

    def _debit(self, ctx: StepContext) -> None:
        """Step ``ctx.step``'s pool debit, run once: by the launch of the
        next step or, when nothing was launched, at the end of the step.
        Rebound, never mutated: the series holds each step's pool."""
        pool = self.pool - ctx.extravasations
        self.pool = ctx.pool_after = (
            np.maximum(pool, 0.0) if isinstance(pool, np.ndarray) else max(0.0, pool)
        )

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
        attrs = self.backend.span_attrs
        step_start = perf_counter()
        for row, phase in enumerate(self.schedule):
            start = perf_counter()
            ran = self.backend.execute(phase, ctx)
            elapsed = perf_counter() - start
            skipped = ran is False
            self.metrics.observe(row, elapsed, skipped)
            if tracer.enabled:
                tracer.emit_span(
                    phase.name, start, elapsed, cat="phase", step=t,
                    skipped=skipped, **attrs,
                )
        step_elapsed = perf_counter() - step_start
        self.metrics.observe_step(step_elapsed)
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
        self.series.add(
            ctx.step, ctx.reduced, ctx.pool_after, ctx.extravasations, ctx.binds,
            ctx.moves,
        )
        stats = self.series[-1]
        record = {"step": t}
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
