"""The distributed execution backend (multi-process shared-memory).

Unlike the single-block backends — one block in one process — this
backend runs each rank as a real OS process.  The coordinator process
(where the :class:`~repro.engine.engine.StepEngine` lives) owns no
kernel: every phase body executes inside the workers
(:mod:`repro.dist.worker`), each stepping its owned voxels plus a ghost
band one step's dependency cone deep, against field arrays allocated in
``multiprocessing.shared_memory`` so the one band pull a step is a
zero-copy read of neighbor blocks.

The engine still drives the canonical schedule on the coordinator:
``begin_step`` publishes ``(step, pool)`` and releases the workers; the
kernel phases are no-ops here (the workers run them behind the same
phase names); ``phase_reduce`` meets the workers at the step-end
barrier, adds the integer statistics each rank counted over its own
active region (exact in any order), copies the float fields' live boxes
into coordinator-side full-domain arrays in the sequential backend's
layout, releases step n+1 when one follows (its ``pool`` needs only the
integer ``extravasations``), and sums those private arrays while the
workers compute, over the hull of the boxes it copied: the *identical*
numpy summation order, restricted to the parts of it that are not all
zero (:func:`~repro.core.stats.float_totals`) — that, plus counter-based
RNG and owner-computes winner resolution, is the determinism argument
(DESIGN.md §4a).
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from repro.core.params import SimCovParams
from repro.core.stats import FloatFields, float_totals
from repro.dist.control import (
    RES_ACTIVE,
    RES_BINDS,
    RES_COUNTS,
    RES_EXTRAVASATIONS,
    RES_MOVES,
)
from repro.dist.runtime import DistRuntime
from repro.dist.worker import FaultSpec, dist_schedule
from repro.engine.backend import ExecutionBackend
from repro.engine.phases import Phase
from repro.engine.sequential import step_reach
from repro.grid.decomposition import Decomposition, DecompositionKind
from repro.grid.halo import HaloExchanger
from repro.obs.imbalance import ImbalanceMonitor
from repro.obs.registry import get_registry
from repro.telemetry.tracer import NULL_TRACER

#: Per-rank telemetry-ring capacity when tracing is on.  Rings are
#: drained every step, so this only needs to hold one step's records
#: (a few dozen per rank); sized with two orders of headroom.
_TELEMETRY_RING_CAPACITY = 4096


class DistBackend(ExecutionBackend):
    """Rank-per-process SIMCoV over shared-memory halo exchange.

    Parameters
    ----------
    params, seed:
        As for the other backends; identical seeds give bitwise identical
        simulations on any rank count.
    nranks:
        Worker processes (one per subdomain).
    decomposition:
        Block (default) or linear.
    active_gating:
        Per-rank every-step activity gating (bitwise invisible).
    barrier_timeout:
        Seconds the coordinator waits at a step barrier before raising a
        diagnostic :class:`~repro.dist.control.BarrierTimeoutError`.
    start_method:
        ``multiprocessing`` start method; default fork where available
        (cheapest), spawn otherwise.  Worker specs are picklable, so both
        work.
    fault:
        Optional :class:`~repro.dist.worker.FaultSpec` injected into the
        workers (robustness tests).
    tracer:
        Optional :class:`~repro.telemetry.tracer.Tracer`.  When enabled,
        the coordinator traces on the ``rank == -1`` lane, each worker
        records its phase, barrier and step spans into its shared-memory
        ring, and the coordinator drains the rings in the per-step
        quiescent window and forwards the decoded spans — original ranks
        and timestamps intact — into the tracer's sinks, followed by one
        ``drain`` span of its own (see :meth:`phase_reduce`).
    """

    name = "dist"

    def __init__(
        self,
        params: SimCovParams,
        nranks: int,
        seed: int = 0,
        decomposition: DecompositionKind = DecompositionKind.BLOCK,
        seed_gids: np.ndarray | None = None,
        structure_gids: np.ndarray | None = None,
        active_gating: bool = True,
        barrier_timeout: float = 60.0,
        start_method: str | None = None,
        fault: FaultSpec | None = None,
        tracer=None,
    ):
        self._init_common(params, seed)
        self.tracer = tracer if tracer is not None else NULL_TRACER
        if self.tracer.enabled:
            # The coordinator owns the negative control-plane lane;
            # workers trace as their own ranks 0..nranks-1.
            self.tracer.rank = -1
        self.decomp = Decomposition.make(self.spec, nranks, decomposition)
        #: The band's strips: a halo as wide as one step's reach.
        self.exchanger = HaloExchanger(self.decomp, ghost=step_reach())
        self.runtime = DistRuntime(
            self.spec,
            self.decomp,
            self.exchanger,
            params,
            seed,
            active_gating=active_gating,
            barrier_timeout=barrier_timeout,
            start_method=start_method,
            fault=fault,
            telemetry_capacity=(
                _TELEMETRY_RING_CAPACITY if self.tracer.enabled else 0
            ),
        )
        #: Shared-memory-backed per-rank blocks (coordinator views).
        self.blocks = self.runtime.blocks
        # Seed through the shared pages *before* the workers spawn, so
        # rank 0's first gate sweep already sees the infection sites.
        self._seed_blocks(self.blocks, seed_gids, structure_gids)
        #: Private full-domain copies of the float fields — the padded
        #: layout of the sequential backend's single block, so their
        #: interior sums are bitwise identical to the reference.  Kept
        #: current by copying each rank's live box per step.
        padded = self.spec.domain.expand(1)
        self._float_origin = padded.lo
        self._floats = FloatFields(self.spec, np.zeros(padded.shape), np.zeros(padded.shape))
        #: ``dirty_epoch`` the copies are current for.  A fresh run's are:
        #: zeros, like every rank field outside the box its first sweep
        #: publishes; a restore moves the epoch on.
        self._floats_epoch = int(self.runtime.ctrl.dirty_epoch[0])
        self._active_counts: list[int] = []
        self._launching = False
        # Always-on metrics + the rolling imbalance index (ROADMAP open
        # item 5's trigger signal).  The per-step deltas come from the
        # same shm counter tables the benchmark reads cumulatively; the
        # _prev_* copies turn them into per-step observations.
        reg = get_registry()
        self._obs_barrier_wait = reg.counter(
            "simcov_dist_barrier_wait_seconds_total",
            "Cumulative barrier-wait seconds summed over ranks",
        )
        self._obs_strips_pulled = reg.counter(
            "simcov_dist_strips_pulled_total",
            "Halo strips actually pulled (activity gate let them through)",
        )
        self._obs_strips_skipped = reg.counter(
            "simcov_dist_strips_skipped_total",
            "Halo strips the activity gate skipped",
        )
        self._obs_imbalance = reg.gauge(
            "simcov_dist_imbalance_index",
            "Rolling per-rank busy-time imbalance (max/mean - 1)",
        )
        self._obs_dropped = reg.gauge(
            "simcov_dist_telemetry_dropped_events",
            "Telemetry ring records lost to overflow, summed over ranks",
        )
        self._obs_rank_busy = [
            reg.counter(
                "simcov_dist_rank_busy_seconds_total",
                "Per-rank busy seconds (phase time minus in-phase waits)",
                rank=r,
            )
            for r in range(nranks)
        ]
        self.imbalance = ImbalanceMonitor(nranks)
        self._nphases = len(self.runtime.phase_names)
        self._prev_phase_seconds = np.zeros(nranks)
        self._prev_phase_wait = np.zeros(nranks)
        self._prev_wait_total = 0.0
        self._prev_strips = (0, 0)
        self.runtime.start()

    # -- schedule ------------------------------------------------------------

    def schedule(self) -> tuple[Phase, ...]:
        return dist_schedule()

    # -- engine protocol -----------------------------------------------------

    def begin_step(self, ctx) -> None:
        with self.tracer.span(  # in_phase: launched from the last reduce
            "step_start", cat="barrier", step=ctx.step, in_phase=self._launching
        ):
            self.runtime.start_step(ctx.step, ctx.pool)

    def phase_reduce(self, ctx) -> None:
        """Step-end barrier, then the coordinator-side reduction: every
        shared-memory read while the workers are parked and nothing else,
        then the launch of the next step, then the counter folds and the
        float sums over the private copies.

        When tracing, the reads include draining the workers' rings; the
        drain is recorded as one ``drain`` span (``cat="telemetry"``,
        rank -1) carrying the step's windowed ``imbalance`` index and
        each rank's cumulative ring-overflow count (``dropped``), which
        ``trace report`` reads for its imbalance panel and its
        incomplete-trace warning."""
        # Unlike the workers' step_end (between phases), this wait runs
        # inside the coordinator's reduce phase span; in_phase tells the
        # report to subtract it from busy time.
        with self.tracer.span(
            "step_end", cat="barrier", step=ctx.step, in_phase=True
        ):
            self.runtime.finish_step()
        res = self.runtime.ctrl.results
        ctx.extravasations = int(res[:, RES_EXTRAVASATIONS].sum())
        ctx.moves = int(res[:, RES_MOVES].sum())
        ctx.binds = int(res[:, RES_BINDS].sum())
        self._active_counts = [int(v) for v in res[:, RES_ACTIVE]]
        counts = res[:, RES_COUNTS].sum(axis=0)
        hull = self._refresh_floats()
        counters = self._read_counters()
        if self.tracer:
            drain_start = perf_counter()
            for ev in self.runtime.drain_telemetry():
                self.tracer.emit(ev)
            drain_seconds = perf_counter() - drain_start
        if ctx.launch_next is not None:
            self._launching = True
            ctx.launch_next(ctx)
            self._launching = False
        index = self._observe_step(ctx.step, *counters)
        if self.tracer:
            self.tracer.emit_span(
                "drain", drain_start, drain_seconds, cat="telemetry",
                step=ctx.step, imbalance=index, dropped=counters[-1],
            )
        ctx.reduced = np.concatenate([counts, float_totals(self._floats, hull)])

    def _refresh_floats(self) -> tuple[slice, ...] | None:
        """Bring the private float fields up to date with the rank blocks
        and return the padded box they can be non-zero in (None: nowhere),
        the region :func:`float_totals` sums.

        Every write of the step just finished to the voxels a rank owns
        lies inside the owned box it published (its band is another
        rank's truth), so that box is all there is to copy —
        on the first step too, whose sweep sees all of the seeded state —
        except after a restore, when the whole owned interior of every
        rank is new.  Outside its box a rank's float fields are zero, so
        the copies are zero outside the hull of the boxes.
        """
        ctrl = self.runtime.ctrl
        epoch = int(ctrl.dirty_epoch[0])
        everything = epoch != self._floats_epoch
        self._floats_epoch = epoch
        boxes = []
        for rank, block in enumerate(self.blocks):
            box = (
                self.decomp.boxes[rank] if everything
                else ctrl.read_region(rank, self.spec.ndim)
            )
            if box is None:
                continue
            src = box.slices_from(block.origin)
            dst = box.slices_from(self._float_origin)
            boxes.append(dst)
            for name in FloatFields.FIELD_DTYPES:
                getattr(self._floats, name)[dst] = getattr(block, name)[src]
        return tuple(
            slice(min(s.start for s in axis), max(s.stop for s in axis)) for axis in zip(*boxes)
        ) or None

    def state_restored(self) -> None:
        # Workers must not trust strips pulled, nor statistics counted,
        # before the scatter — which is already visible when they observe
        # the epoch bump; _refresh_floats sees the same bump.
        self.runtime.invalidate_ghosts()

    def _read_counters(self) -> tuple:
        """The cumulative shm counters :meth:`_observe_step` folds, read in
        the quiescent window after the step-end barrier (every worker
        parked, so the reads are stable): per-rank phase and in-phase
        wait seconds, the total wait, the strip counts and each rank's
        dropped-event count.
        """
        ctrl = self.runtime.ctrl
        # metrics_wait columns = phase names (in-phase barrier waits)
        # then the two step barriers; busy excludes only the in-phase
        # portion — the step barriers sit outside any phase.
        wait = np.asarray(ctrl.metrics_wait, dtype=np.float64)
        return (
            np.asarray(ctrl.metrics_seconds, dtype=np.float64).sum(axis=1),
            wait[:, : self._nphases].sum(axis=1),
            float(wait.sum()),
            self.runtime.strip_counts(),
            self.runtime.telemetry_dropped(),
        )

    def _observe_step(self, step, phase_seconds, phase_wait, wait_total,
                      strips, dropped) -> float:
        """Fold one step's counter deltas (:meth:`_read_counters`) into the
        registry and the imbalance monitor, and return the step's
        imbalance index; runs after the next step's release, reading
        nothing the workers write."""
        busy_delta = (phase_seconds - self._prev_phase_seconds) - (
            phase_wait - self._prev_phase_wait
        )
        self._prev_phase_seconds = phase_seconds
        self._prev_phase_wait = phase_wait
        for counter, delta in zip(self._obs_rank_busy, busy_delta):
            counter.inc(max(0.0, float(delta)))
        index = self.imbalance.observe(step, busy_delta)
        self._obs_imbalance.set(index)

        self._obs_barrier_wait.inc(max(0.0, wait_total - self._prev_wait_total))
        self._prev_wait_total = wait_total

        pulled, skipped = strips
        self._obs_strips_pulled.inc(pulled - self._prev_strips[0])
        self._obs_strips_skipped.inc(skipped - self._prev_strips[1])
        self._prev_strips = strips

        self._obs_dropped.set(sum(dropped))
        return index

    def step_record(self, ctx) -> dict:
        return {"active_per_rank": list(self._active_counts)}

    # -- inspection ----------------------------------------------------------

    def gather_field(self, name: str) -> np.ndarray:
        out = np.zeros(self.spec.shape, dtype=getattr(self.blocks[0], name).dtype)
        for box, block in zip(self.decomp.boxes, self.blocks):
            out[box.slices_from((0,) * box.ndim)] = getattr(block, name)[
                box.slices_from(block.origin)
            ]
        return out

    # -- teardown ------------------------------------------------------------

    def close(self) -> None:
        self.runtime.close()

    def __enter__(self) -> "DistBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
