"""The per-rank worker process of the distributed runtime.

Each worker owns one subdomain: its :class:`~repro.core.state.VoxelBlock`
and :class:`~repro.core.kernels.IntentArrays` fields are views into its
shared-memory segment, and the segments of its halo neighbors are mapped
read-mostly, so every exchange phase is a direct strip copy between
address spaces — no serialization, no message queue.

The worker executes the same declarative :func:`dist_schedule` the
coordinator validates, in lock step with its peers via the control
segment's phase barriers (see :mod:`repro.dist.control`).  The schedule
is SIMCoV-GPU's single-wave §3.1 tiebreak (REPLACE intents + MAX bids at
``tiebreak_exchange``; ``result_exchange`` is a structural no-op)
combined with SIMCoV-CPU's start-of-step ghost refresh, which
feeds the per-rank every-step :class:`~repro.engine.activity.ActivityGate`.

Barrier placement per step (W = workers-only phase barrier, S = the
step barrier shared with the coordinator) — the *fused* 6-barrier
protocol (4 phase + 2 step; the seed protocol used 8)::

       open pulls        gated ghost pulls in the quiescent window
                         (peers parked; previous step's fields final)
    S  step start        coordinator published (step, pool); the barrier
                         itself is the open wave's exit fence
       age_extravasate   gate refresh + publish activity box + kernels
       boundary_exchange clear intents + INTERIOR intents pass (no ghost
    W                    reads), then (peers done mutating) gated T-cell
                         strip pulls
       intents           BOUNDARY-band intents pass (fresh ghosts)
    W  tiebreak_exchange (intents done) ──► gated REPLACE pulls + merge
                         MAX bids into *private* buffers (raw bid arrays
                         are never mutated after intents, so no
                         snapshot fence is needed)
       resolve / epithelial
    W  concentration_exchange (production done) ──► gated pulls, then
                         mirror + INTERIOR diffuse into scratch  ──►  W
       diffuse           BOUNDARY-band diffuse + commit, publish results
    S  step end          coordinator reduces statistics

Unlabeled edges need no barrier: a reader that advances past its copy
only mutates the copied fields after a later barrier that the writer
must also have passed (verified per wave in DESIGN.md §4a).  The open
wave's pulls run *before* the step-start barrier: every peer is parked
there too, so its previous-step fields are final, and no peer can
mutate them until this worker arrives — the step-start barrier doubles
as the copies-done fence that used to cost a dedicated phase barrier.
Pulls are gated per strip by the activity boxes peers publish in the
control segment (see ``_pull_state_wave``); a checkpoint restore bumps
``dirty_epoch`` and forces one full re-pull + resync fence.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from repro.core import kernels
from repro.core.params import SimCovParams
from repro.core.state import VoxelBlock
from repro.core.stats import RegionReducer
from repro.dist.control import (
    CMD_STEP,
    RES_ACTIVE,
    RES_BINDS,
    RES_COUNTS,
    RES_EXTRAVASATIONS,
    RES_MOVES,
    SHUTDOWN_STEP,
    STATUS_ERROR,
    STRIPS_PULLED,
    STRIPS_SKIPPED,
    ControlBlock,
    DistAborted,
    ShmBarrier,
    control_layout,
)
from repro.dist.shm import ShmSegment, block_layout
from repro.diffusion.stencil import split_interior_boundary
from repro.engine.activity import ActivityGate
from repro.engine.phases import FieldSet, Phase, PhaseKind, exchange, kernel
from repro.grid.box import Box
from repro.grid.halo import MergeMode, RankPullPlan, strip_live
from repro.grid.spec import GridSpec
from repro.rng.streams import VoxelRNG
from repro.telemetry.shmring import RingCodec, ShmRingSink
from repro.telemetry.tracer import NULL_TRACER, Tracer

#: Start-of-step ghost refresh: activity-gate + bind-stencil inputs (the
#: PGAS open wave).  ``epi_state`` is not mutated again before ``intents``
#: reads its ghosts, so it rides here instead of in the boundary wave.
OPEN_FIELDS = ("epi_state", "virions", "chemokine", "tcell")
#: Post-extravasation occupancy + move payload (the GPU wave A remainder).
BOUNDARY_FIELDS = ("tcell", "tcell_tissue_time", "tcell_bound_time")
#: Post-production concentrations (wave C).
CONCENTRATION_FIELDS = ("virions", "chemokine")


def dist_schedule() -> tuple[Phase, ...]:
    """The multi-process schedule: PGAS-style open wave + GPU-style
    single-wave tiebreak, no tile_sweep (gating is every-step refresh)."""
    return (
        exchange(
            "open_exchange",
            FieldSet("state", OPEN_FIELDS, MergeMode.REPLACE),
            doc="start-of-step ghost strips: gate + bind-stencil input",
        ),
        kernel("age_extravasate"),
        exchange(
            "boundary_exchange",
            FieldSet("state", BOUNDARY_FIELDS, MergeMode.REPLACE),
            doc="post-extravasation occupancy + move payload",
        ),
        kernel("intents"),
        exchange(
            "tiebreak_exchange",
            FieldSet(
                "intent", kernels.IntentArrays.REPLACE_FIELDS, MergeMode.REPLACE
            ),
            FieldSet("intent", kernels.IntentArrays.MAX_FIELDS, MergeMode.MAX),
            doc="the single tiebreak wave of §3.1 (pull + private max-merge)",
        ),
        kernel("resolve"),
        exchange("result_exchange", doc="no-op: single-wave tiebreak"),
        kernel("apply_results", doc="no-op: winners resolved locally"),
        kernel("epithelial"),
        exchange(
            "concentration_exchange",
            FieldSet("state", CONCENTRATION_FIELDS, MergeMode.REPLACE),
            doc="post-production concentration strips",
        ),
        kernel("diffuse"),
        kernel("reduce", doc="per-rank integer counts; coordinator sums floats"),
    )


def telemetry_name_table(phase_names) -> tuple[str, ...]:
    """The shared ``"cat:name"`` interning table for the telemetry rings.

    Both the coordinator and every worker derive this tuple from the
    phase-name list they already agree on, so ring records can carry a
    small integer instead of a string (see
    :mod:`repro.telemetry.shmring`).  Order is the id assignment — append
    only.
    """
    names = [f"phase:{n}" for n in phase_names]
    names += [f"barrier:{n}" for n in phase_names]
    names += ["barrier:step_start", "barrier:step_end"]
    names += ["comm:halo_bytes", "counter:bids_won", "counter:bids_lost"]
    names += ["gating:active_voxels", "step:step"]
    names += ["comm:strips_pulled", "comm:strips_skipped", "barrier:resync"]
    return tuple(names)


#: The fault-injection vocabulary (see :class:`FaultSpec`).
FAULT_MODES = ("stall", "die", "error", "slow", "freeze_heartbeat")


@dataclass(frozen=True)
class FaultSpec:
    """Fault injection for robustness/recovery tests.

    At the start of ``phase`` in ``step``, rank ``rank`` misbehaves
    according to ``mode``:

    - ``"stall"`` — stop making progress until aborted (trips the
      coordinator's barrier timeout; status/heartbeat stay frozen);
    - ``"die"`` — hard exit (``os._exit(13)``, no teardown), surfaced by
      the coordinator's liveness poll;
    - ``"error"`` — raise inside the phase; the worker marks its error
      status, flips the abort flag and exits nonzero;
    - ``"slow"`` — a straggler, not a failure: sleep ``delay`` seconds at
      this phase on *every* step >= ``step`` (the run still completes);
    - ``"freeze_heartbeat"`` — from (step, phase) on, keep computing but
      stop refreshing the heartbeat, so liveness gauges age while the
      run stays healthy.

    ``repeat`` is read by the resilient supervisor
    (:mod:`repro.dist.resilient`): the fault is re-injected into the
    first ``repeat - 1`` respawned runtimes, so multi-restart and
    restart-exhaustion paths are testable deterministically.
    """

    rank: int
    step: int
    phase: str
    mode: str  # one of FAULT_MODES
    #: Seconds a "slow" rank sleeps per affected phase.
    delay: float = 0.05
    #: How many runtime incarnations the fault fires in (supervisor-read).
    repeat: int = 1

    def __post_init__(self):
        if self.mode not in FAULT_MODES:
            raise ValueError(f"unknown fault mode {self.mode!r}")
        if self.repeat < 1:
            raise ValueError("repeat must be >= 1")
        if self.delay < 0:
            raise ValueError("delay must be >= 0")


@dataclass(frozen=True)
class WorkerSpec:
    """Everything a worker needs, picklable for any start method."""

    rank: int
    nranks: int
    params: SimCovParams
    seed: int
    boxes: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    plan: RankPullPlan
    segment_names: tuple[str, ...]
    ctrl_name: str
    phase_names: tuple[str, ...]
    active_gating: bool = True
    barrier_timeout: float = 60.0
    fault: FaultSpec | None = None
    #: Per-rank telemetry-ring record capacity; 0 = tracing off.
    telemetry_capacity: int = 0
    #: Coordinator-side ``dirty_epoch`` snapshot at spawn time.  Workers
    #: must agree on the baseline (reading the live counter at attach
    #: time races a coordinator restore, desynchronizing the resync
    #: fence), and only the coordinator can snapshot it consistently.
    dirty_epoch: int = 0
    #: :attr:`DistRuntime.wakers` (inheritable only while a process spawns).
    wakers: tuple = ()


class InjectedFault(RuntimeError):
    """Raised by the ``error`` fault mode — a real failure to the
    runtime, but not worth a traceback dump in test logs."""


def worker_main(spec: WorkerSpec) -> None:
    """Process entry point: run the step loop until shutdown or abort."""
    worker = None
    try:
        worker = _RankWorker(spec)
        worker.run()
        code = 0
    except DistAborted:
        code = 0
    except BaseException as err:
        if not isinstance(err, InjectedFault):
            import traceback

            traceback.print_exc()
        if worker is not None and worker.ctrl is not None:
            worker.ctrl.status[spec.rank, STATUS_ERROR] = 1
            worker.ctrl.abort()
        code = 1
    finally:
        if worker is not None:
            worker.close()
    # Skip atexit/GC teardown races on the interpreter's way out — all
    # segments are already closed and the parent owns unlinking.
    os._exit(code)


class _TiebreakView:
    """The intent view ``resolve`` reads: REPLACE fields straight from the
    shared raw arrays, MAX bid fields from this rank's private merged
    buffers.  Duck-types the :class:`~repro.core.kernels.IntentArrays`
    surface the resolve kernels touch."""

    __slots__ = ("move_dir", "bind_dir", "bid_self", "move_bid", "bind_bid")

    def __init__(self, raw, merged_move_bid, merged_bind_bid):
        self.move_dir = raw.move_dir
        self.bind_dir = raw.bind_dir
        self.bid_self = raw.bid_self
        self.move_bid = merged_move_bid
        self.bind_bid = merged_bind_bid


class _RankWorker:
    """One rank's state + step loop."""

    def __init__(self, spec: WorkerSpec):
        self.spec = spec
        self.rank = spec.rank
        self.params = spec.params
        self.rng = VoxelRNG(spec.seed)
        self.grid = GridSpec(spec.params.dim)
        self.plan = spec.plan
        self.schedule = dist_schedule()
        assert tuple(p.name for p in self.schedule) == spec.phase_names
        self.ctrl: ControlBlock | None = None
        self._segments: list[ShmSegment] = []

        boxes = [Box(lo, hi) for lo, hi in spec.boxes]
        # Attach the control segment and the data segments of self + every
        # halo neighbor; build zero-copy views.
        ctrl_seg = ShmSegment.attach(
            spec.ctrl_name,
            control_layout(
                spec.nranks, len(spec.phase_names), spec.telemetry_capacity
            ),
        )
        self._segments.append(ctrl_seg)
        self.ctrl = ControlBlock(ctrl_seg, spec.nranks, spec.phase_names)
        #: This rank's rows of the cumulative per-phase counters, added to
        #: where a phase is timed; ``DistRuntime._rank_metrics`` rebuilds
        #: the :class:`~repro.engine.metrics.PhaseMetrics` readers get.
        self._seconds, self._calls, self._skips = (
            table[self.rank] for table in (
                self.ctrl.metrics_seconds, self.ctrl.metrics_calls,
                self.ctrl.metrics_skips,
            )
        )
        if spec.telemetry_capacity > 0:
            codec = RingCodec(telemetry_name_table(spec.phase_names))
            self.tracer = Tracer(
                rank=self.rank,
                backend="dist",
                sinks=[
                    ShmRingSink(
                        self.ctrl.tel_data[self.rank],
                        self.ctrl.tel_count[self.rank : self.rank + 1],
                        self.ctrl.tel_dropped[self.rank : self.rank + 1],
                        codec,
                    )
                ],
            )
        else:
            self.tracer = NULL_TRACER
        #: Step currently executing (stamped on barrier/comm events
        #: emitted from helpers that don't receive the step).
        self._step = 0
        self.arrays: dict[int, dict[str, np.ndarray]] = {}
        for r in {self.rank, *self.plan.neighbor_ranks}:
            shape = tuple(s + 2 for s in boxes[r].shape)
            seg = ShmSegment.attach(spec.segment_names[r], block_layout(shape))
            self._segments.append(seg)
            self.arrays[r] = seg.arrays
        mine = self.arrays[self.rank]
        # The coordinator created + initialized (zero, tissue, seeds) the
        # field storage, so adopt it as-is; intents are worker scratch and
        # start at their sentinels.
        self.block = VoxelBlock.from_arrays(
            self.grid, boxes[self.rank], mine, ghost=1, fresh=False
        )
        self.intents = kernels.IntentArrays.from_arrays(
            {
                name: mine[f"intent_{name}"]
                for name in kernels.IntentArrays.FIELD_DTYPES
            },
            fresh=True,
        )
        self.gate = ActivityGate(
            self.block,
            spec.params.min_chemokine,
            sweep_period=1,
            enabled=spec.active_gating,
        )
        self.reducer = RegionReducer(self.block)
        self._scratch_v = np.zeros_like(self.block.virions)
        self._scratch_c = np.zeros_like(self.block.chemokine)
        # -- activity-gated exchange state ---------------------------------
        #: Global boxes of the REPLACE routes (liveness tests are box math).
        self._route_boxes = [r.region for r in self.plan.replace]
        nroutes = len(self.plan.replace)
        #: Per-(wave, route) staleness: True = the source has written inside
        #: the route since this wave last pulled it.  Everything starts
        #: dirty so the first step always pulls.
        self._dirty_open = [True] * nroutes
        self._dirty_bnd = [True] * nroutes
        self._dirty_conc = [True] * nroutes
        #: Ghost-invalidation epoch last honored (checkpoint restores bump
        #: the shared counter; see _resync).
        self._seen_epoch = int(spec.dirty_epoch)
        #: Stash of the pre-step open pulls: (seconds, bytes, pulled,
        #: skipped).  Ring-write discipline defers its telemetry to the
        #: open_exchange phase body, after the step-start barrier.
        self._pending_open = None
        # -- fused tiebreak (no snapshot fence) ----------------------------
        # Raw MAX bid arrays are never mutated after the intents phase;
        # each rank max-merges neighbor strips into private buffers and
        # resolves against this view, eliminating the mid-wave barrier.
        if self.plan.max_merge:
            self._merged_move_bid = np.zeros_like(self.intents.move_bid)
            self._merged_bind_bid = np.zeros_like(self.intents.bind_bid)
            self._resolve_intents = _TiebreakView(
                self.intents, self._merged_move_bid, self._merged_bind_bid
            )
        else:  # single rank: nothing to merge, resolve reads the raw arrays
            self._merged_move_bid = self._merged_bind_bid = None
            self._resolve_intents = self.intents
        #: Boundary-band work deferred by the overlapped interior passes.
        self._intents_boundary: list | None = None
        self._diffuse_boundary: list | None = None
        # -- per-step accounting -------------------------------------------
        self._phase_index = {n: i for i, n in enumerate(spec.phase_names)}
        #: Barrier-wait seconds per phase + [step_start, step_end].
        self._wait = np.zeros(len(spec.phase_names) + 2)
        self._extra_seconds = 0.0
        self._pulled_step = 0
        self._skipped_step = 0
        self.step_bar = ShmBarrier(
            self.ctrl.step_bar, self.rank, self.ctrl, label="step barrier",
            wakers=spec.wakers,
        )
        self.phase_bar = ShmBarrier(
            self.ctrl.phase_bar, self.rank, self.ctrl, label="phase barrier",
            wakers=spec.wakers[: spec.nranks],
        )
        # Let the coordinator win every timeout-reporting race: workers
        # blocked on a stalled peer must outlast the coordinator's wait.
        self.timeout = spec.barrier_timeout * 2 + 5.0
        # Per-step counters.
        self._extr = 0
        self._moves = 0
        self._binds = 0
        self._active = 0
        self._counts = 0
        #: Cleared by the freeze_heartbeat fault: status keeps updating
        #: but the liveness timestamp goes stale.
        self._heartbeat_on = True

    # -- lifecycle -----------------------------------------------------------

    def run(self) -> None:
        hb = lambda: self.ctrl.set_status(
            self.rank,
            int(self.ctrl.status[self.rank, 0]),
            int(self.ctrl.status[self.rank, 1]),
            heartbeat=self._heartbeat_on,
        )
        pending_end = None  # (start, dur, step) of the last step-end wait
        nphases = len(self.spec.phase_names)
        while True:
            # Open-wave ghost pulls run here, in the quiescent window:
            # every peer is parked at this same barrier, so its fields are
            # final, and none can mutate them until this worker arrives.
            # No ring writes in this window (the coordinator is draining).
            self._early_open_pull()
            t0 = perf_counter()
            self.step_bar.wait(self.timeout, heartbeat=hb)
            t1 = perf_counter()
            self._wait[nphases] += t1 - t0
            step = int(self.ctrl.command[CMD_STEP])
            if step == SHUTDOWN_STEP:
                return
            if self.tracer:
                # Ring-write discipline: the coordinator drains the rings
                # between the step-end barrier and the next step-start
                # release, so nothing may be written in that window — the
                # step-end wait span is therefore emitted one step late,
                # here, right after the start barrier proves the drain is
                # over.
                if pending_end is not None:
                    self.tracer.emit_span(
                        "step_end", pending_end[0], pending_end[1],
                        cat="barrier", step=pending_end[2],
                    )
                self.tracer.emit_span(
                    "step_start", t0, t1 - t0, cat="barrier", step=step
                )
            self._pulled_step = self._skipped_step = 0
            epoch = int(self.ctrl.dirty_epoch[0])
            if epoch != self._seen_epoch:
                self._seen_epoch = epoch
                self._resync(step)
            self._run_step(step, float(self.ctrl.pool[0]))
            t2 = perf_counter()
            self.step_bar.wait(self.timeout, heartbeat=hb)
            dur = perf_counter() - t2
            self._wait[nphases + 1] += dur
            pending_end = (t2, dur, step)

    def close(self) -> None:
        for seg in self._segments:
            seg.close()
        self._segments.clear()

    # -- one step ------------------------------------------------------------

    def _run_step(self, step: int, pool: float) -> None:
        # Recompute the global attempt schedule locally: it is a pure
        # function of (seed, step, pool), all of which the coordinator
        # published, so every rank derives the identical arrays.
        attempts = kernels.extravasation_attempts(
            self.params, self.rng, step, pool
        )
        self._extr = self._moves = self._binds = 0
        self._step = step
        step_start = perf_counter()
        for index, phase in enumerate(self.schedule):
            self.ctrl.set_status(
                self.rank, step, index, heartbeat=self._heartbeat_on
            )
            self._maybe_fault(step, phase.name)
            start = perf_counter()
            ran = self._execute(phase, step, attempts)
            # Work done outside the phase loop on this phase's behalf
            # (the pre-step open pulls, a resync) is charged here.
            elapsed = perf_counter() - start + self._extra_seconds
            self._extra_seconds = 0.0
            skipped = ran is False
            if skipped:
                self._skips[index] += 1
            else:
                self._seconds[index] += elapsed
                self._calls[index] += 1
            if self.tracer:
                self.tracer.emit_span(
                    phase.name, start, elapsed, cat="phase", step=step,
                    skipped=skipped,
                )
        if self.tracer:
            self.tracer.emit_span(
                "step", step_start, perf_counter() - step_start,
                cat="step", step=step,
            )
        self._publish(step)

    def _execute(self, phase: Phase, step: int, attempts):
        if phase.kind is PhaseKind.EXCHANGE:
            return self._exchange(phase)
        handler = getattr(self, f"phase_{phase.name}", None)
        if handler is None:
            return False
        return handler(step, attempts)

    def _maybe_fault(self, step: int, phase_name: str) -> None:
        fault = self.spec.fault
        if (
            fault is None
            or fault.rank != self.rank
            or fault.phase != phase_name
        ):
            return
        if fault.mode == "slow":
            # A straggler: late every affected step, but never failing.
            if step >= fault.step:
                time.sleep(fault.delay)
            return
        if step != fault.step and fault.mode != "freeze_heartbeat":
            return
        if fault.mode == "freeze_heartbeat":
            if step >= fault.step:
                self._heartbeat_on = False
            return
        if fault.mode == "die":
            os._exit(13)
        if fault.mode == "error":
            raise InjectedFault(
                f"injected fault: rank {self.rank} errored in "
                f"{phase_name!r} at step {step}"
            )
        while not self.ctrl.aborted:  # stall (status stays frozen here)
            time.sleep(0.005)
        raise DistAborted(f"aborted while stalled in {phase_name!r}")

    def _publish(self, step: int) -> None:
        """Per-step totals + cumulative waits and strip counts, read by
        the coordinator after the step-end barrier."""
        row = self.ctrl.results[self.rank]
        row[RES_EXTRAVASATIONS] = self._extr
        row[RES_MOVES] = self._moves
        row[RES_BINDS] = self._binds
        row[RES_ACTIVE] = self._active
        row[RES_COUNTS] = self._counts
        self.ctrl.metrics_wait[self.rank] = self._wait
        self.ctrl.strips[self.rank, STRIPS_PULLED] += self._pulled_step
        self.ctrl.strips[self.rank, STRIPS_SKIPPED] += self._skipped_step
        if self.tracer and (self._pulled_step or self._skipped_step):
            self.tracer.counter(
                "strips_pulled", self._pulled_step, cat="comm", step=step
            )
            self.tracer.counter(
                "strips_skipped", self._skipped_step, cat="comm", step=step
            )

    # -- exchange phases -----------------------------------------------------

    def _phase_barrier(self, name: str) -> None:
        """One phase-barrier wait, timed as a ``cat="barrier"`` span and
        charged to the owning phase's wait column."""
        start = perf_counter()
        self.phase_bar.wait(self.timeout)
        dur = perf_counter() - start
        idx = self._phase_index.get(name)
        if idx is None:  # the resync fence is charged to the open wave
            idx = self._phase_index["open_exchange"]
        self._wait[idx] += dur
        if self.tracer:
            self.tracer.emit_span(
                name, start, dur, cat="barrier", step=self._step
            )

    def _exchange(self, phase: Phase):
        if not phase.exchanges:
            return False
        if phase.name == "open_exchange":
            return self._open_exchange(phase)
        if phase.name == "boundary_exchange":
            return self._boundary_exchange(phase)
        if phase.name == "tiebreak_exchange":
            return self._tiebreak_exchange(phase)
        return self._concentration_exchange(phase)

    def _keys(self, fs: FieldSet) -> list[str]:
        prefix = "intent_" if fs.scope == "intent" else ""
        return [prefix + name for name in fs.fields]

    # -- copy primitives ----------------------------------------------------

    def _copy_route(self, route, keys) -> int:
        """Copy one route's full strip for ``keys``; returns bytes moved."""
        src = self.arrays[route.src]
        mine = self.arrays[self.rank]
        ssl = self.plan.src_slices(route)
        dsl = self.plan.dst_slices(route)
        nbytes = 0
        for key in keys:
            strip = src[key][ssl]
            mine[key][dsl] = strip
            nbytes += strip.nbytes
        return nbytes

    def _copy_box(self, src_rank: int, box: Box, keys) -> int:
        """Copy an arbitrary global sub-box from ``src_rank`` (the cropped
        tiebreak pulls); returns bytes moved."""
        src = self.arrays[src_rank]
        mine = self.arrays[self.rank]
        ssl = box.slices_from(self.plan.origins[src_rank])
        dsl = box.slices_from(self.plan.origins[self.rank])
        nbytes = 0
        for key in keys:
            strip = src[key][ssl]
            mine[key][dsl] = strip
            nbytes += strip.nbytes
        return nbytes

    # -- the gated waves ----------------------------------------------------

    def _early_open_pull(self) -> None:
        """Gated open-wave ghost pulls in the pre-step quiescent window.

        Every peer is parked at the step-start barrier, so its previous-
        step fields are final and stay frozen until this worker arrives —
        the barrier itself is the copies-done fence.  Liveness is judged
        against the regions peers published *last* step (exactly the box
        their writes since our previous pull were confined to).  No ring
        writes here (the coordinator is draining); telemetry is stashed
        and accounted in the open_exchange phase body.
        """
        if not self.plan.replace:
            self._pending_open = (0.0, 0, 0, 0)
            return
        start = perf_counter()
        ndim = len(self.plan.origins[self.rank])
        keys = list(OPEN_FIELDS)
        nbytes = pulled = skipped = 0
        for i, route in enumerate(self.plan.replace):
            if strip_live(
                self._route_boxes[i], self.ctrl.read_region(route.src, ndim)
            ):
                self._dirty_open[i] = True
                self._dirty_bnd[i] = True
                self._dirty_conc[i] = True
            if self._dirty_open[i]:
                nbytes += self._copy_route(route, keys)
                pulled += 1
                # OPEN_FIELDS covers the concentration fields, so the conc
                # wave's view of this strip is fresh too; the tissue/bound
                # times are *not* in the open wave, so the boundary wave
                # stays dirty until it pulls them itself.
                self._dirty_open[i] = False
                self._dirty_conc[i] = False
            else:
                skipped += 1
        self._pending_open = (perf_counter() - start, nbytes, pulled, skipped)

    def _open_exchange(self, phase: Phase):
        """Account the pre-step pulls (see :meth:`_early_open_pull`): the
        copies themselves already ran in the quiescent window."""
        seconds, nbytes, pulled, skipped = self._pending_open
        self._pending_open = None
        self._extra_seconds += seconds
        self._pulled_step += pulled
        self._skipped_step += skipped
        if self.tracer and nbytes:
            self.tracer.counter(
                "halo_bytes", nbytes, cat="comm", step=self._step,
                phase=phase.name,
            )
        return pulled > 0

    def _pull_state_wave(self, phase: Phase, dirty) -> bool:
        """One gated in-step REPLACE wave: a strip is pulled iff it was
        left dirty by an earlier wave or the source's *current* activity
        box touches it; pulling cleans it."""
        keys = [k for fs in phase.exchanges for k in self._keys(fs)]
        ndim = len(self.plan.origins[self.rank])
        nbytes = pulled = skipped = 0
        for i, route in enumerate(self.plan.replace):
            if strip_live(
                self._route_boxes[i], self.ctrl.read_region(route.src, ndim)
            ):
                dirty[i] = True
            if dirty[i]:
                nbytes += self._copy_route(route, keys)
                dirty[i] = False
                pulled += 1
            else:
                skipped += 1
        self._pulled_step += pulled
        self._skipped_step += skipped
        if self.tracer and nbytes:
            self.tracer.counter(
                "halo_bytes", nbytes, cat="comm", step=self._step,
                phase=phase.name,
            )
        return pulled > 0

    def _boundary_exchange(self, phase: Phase):
        """Overlap: clear intents and run the *interior* intents pass —
        whose stencil never leaves this rank's non-ghost cells — before
        fencing on peers, then pull the T-cell strips the boundary band
        needs.  The clear is the dirty slab (region grown by one voxel,
        united with last step's): the intents kernel scatters bids one
        voxel outward, and the tiebreak's REPLACE copies land in ghost
        cells of ``region_box().expand(1)`` — the same slab — so every
        cell outside it still holds the sentinel a peer's pull or
        max-merge expects."""
        region = self.gate.region()
        self.intents.clear(() if region is None else region)
        interior = None
        if region is None:
            self._intents_boundary = None
        else:
            interior, slabs = split_interior_boundary(
                region, self.block.virions.shape, self.block.ghost
            )
            if interior is None:
                # Too thin for a safe core: the whole region waits for
                # fresh ghosts (the slabs from a failed split don't tile).
                self._intents_boundary = [region]
            else:
                self._intents_boundary = slabs
                kernels.tcell_intents(
                    self.params, self.rng, self._step, self.block,
                    self.intents, interior,
                )
        # Entry barrier: peers are done mutating T-cell fields; the next
        # mutation (resolve) sits behind the tiebreak barrier, which every
        # reader passes first.
        self._phase_barrier(phase.name)
        ran = self._pull_state_wave(phase, self._dirty_bnd)
        return ran or interior is not None

    def _tiebreak_exchange(self, phase: Phase):
        """The single tiebreak wave: entry barrier (everyone's intents are
        final — raw arrays are never mutated after the intents phase),
        then gated REPLACE pulls of neighbor intents cropped to the
        one-voxel neighborhood resolve actually reads, then max-merge the
        bid strips into this rank's *private* buffers.  No exit fence:
        peers still copying read only raw arrays, whose next mutation
        (next step's clear) sits behind the concentration barriers."""
        self._phase_barrier(phase.name)
        nroutes = len(self.plan.replace) + len(self.plan.max_merge)
        my_box = self.gate.region_box()
        if my_box is None:
            # No resolve this step: no intent ghosts are read.  Peers pull
            # this rank's raw (fully cleared) arrays directly.
            self._skipped_step += nroutes
            return False
        read_box = my_box.expand(1)
        ndim = len(self.plan.origins[self.rank])
        rep_keys = [
            k
            for fs in phase.exchanges
            if fs.merge is MergeMode.REPLACE
            for k in self._keys(fs)
        ]
        nbytes = 0
        for route in self.plan.replace:
            box = route.region.intersect(read_box)
            if not box.is_empty and strip_live(
                box, self.ctrl.read_region(route.src, ndim), dilate=1
            ):
                nbytes += self._copy_box(route.src, box, rep_keys)
                self._pulled_step += 1
            else:
                self._skipped_step += 1
        nbytes += self._merge_max_bids(read_box, ndim)
        if self.tracer and nbytes:
            self.tracer.counter(
                "halo_bytes", nbytes, cat="comm", step=self._step,
                phase=phase.name,
            )
        return True

    def _merge_max_bids(self, read_box: Box, ndim: int) -> int:
        """Refresh the private merged-bid buffers: copy this rank's raw
        bids over the resolve read neighborhood, then max-merge every live
        neighbor strip (cropped to that neighborhood) on top.  Raw bid
        arrays — this rank's and every peer's — are left untouched, which
        is what makes the merge fence-free."""
        if self._merged_move_bid is None:
            return 0
        region = self.gate.region()
        shape = self._merged_move_bid.shape
        mr = tuple(
            slice(max(0, s.start - 1), min(n, s.stop + 1))
            for s, n in zip(region, shape)
        )
        self._merged_move_bid[mr] = self.intents.move_bid[mr]
        self._merged_bind_bid[mr] = self.intents.bind_bid[mr]
        merged = {
            "intent_move_bid": self._merged_move_bid,
            "intent_bind_bid": self._merged_bind_bid,
        }
        trace = bool(self.tracer)
        nbytes = 0
        won = lost = 0
        for route in self.plan.max_merge:
            box = route.region.intersect(read_box)
            if box.is_empty or not strip_live(
                box, self.ctrl.read_region(route.src, ndim), dilate=1
            ):
                self._skipped_step += 1
                continue
            ssl = box.slices_from(self.plan.origins[route.src])
            dsl = box.slices_from(self.plan.origins[self.rank])
            for key, buf in merged.items():
                payload = self.arrays[route.src][key][ssl]
                view = buf[dsl]
                if trace:
                    # A conflict is a boundary slot both sides bid on;
                    # this rank loses where the incoming bid beats its own.
                    contested = (payload > 0) & (view > 0)
                    lost_here = int((contested & (payload > view)).sum())
                    lost += lost_here
                    won += int(contested.sum()) - lost_here
                np.maximum(view, payload, out=view)
                nbytes += payload.nbytes
            self._pulled_step += 1
        if trace and (won or lost):
            self.tracer.counter("bids_won", won, step=self._step)
            self.tracer.counter("bids_lost", lost, step=self._step)
        return nbytes

    def _concentration_exchange(self, phase: Phase):
        """Entry barrier (production done everywhere), gated concentration
        pulls, then — overlapping any peer still copying — the no-flux
        mirror and the *interior* diffusion pass into scratch.  The exit
        barrier fences the copies from the diffuse phase's commit, which
        overwrites the owned strips peers read."""
        self._phase_barrier(phase.name)
        self._pull_state_wave(phase, self._dirty_conc)
        region = self.gate.region()
        if region is None:
            self._diffuse_boundary = None
        else:
            kernels.mirror_fields(self.block)
            interior, slabs = split_interior_boundary(
                region, self.block.virions.shape, self.block.ghost
            )
            if interior is None:
                self._diffuse_boundary = [region]
            else:
                self._diffuse_boundary = slabs
                kernels.concentration_update(
                    self.params, self.block, interior, self._scratch_v,
                    self._scratch_c,
                )
        self._phase_barrier(phase.name)
        return True

    def _resync(self, step: int) -> None:
        """Honor a ghost-invalidation epoch bump (checkpoint restore wrote
        fields behind the workers' backs): every strip may be stale, so
        re-pull every exchanged field unconditionally, then fence so no
        rank starts mutating restored state a peer is still copying; the
        gate's region and the cached integer statistics describe the
        overwritten state, so the next sweep examines and the next reduce
        recounts the whole block.
        Every worker observes the same bump at the same step-start, so the
        extra phase-barrier epoch stays in lock step."""
        start = perf_counter()
        self.gate.reset()
        self.reducer.reset()
        keys = sorted({*OPEN_FIELDS, *BOUNDARY_FIELDS, *CONCENTRATION_FIELDS})
        for i, route in enumerate(self.plan.replace):
            self._copy_route(route, keys)
            self._dirty_open[i] = False
            self._dirty_bnd[i] = False
            self._dirty_conc[i] = False
            self._pulled_step += 1
        self._phase_barrier("resync")
        self._extra_seconds += perf_counter() - start

    # -- kernel phases (the single-block bodies, over one rank's block) ------

    def phase_age_extravasate(self, step: int, attempts):
        self.gate.sweep()
        # Nothing has written the interior since the last reduce.
        self.reducer.rebase(self.gate.region())
        # Strip-liveness handshake: peers gate their pulls on this box.
        # Published before this rank's boundary-entry barrier arrival, so
        # every in-step reader (fenced behind that barrier) sees it; the
        # next step's early pulls are fenced by step_end/step_start.
        self.ctrl.publish_region(self.rank, self.gate.region_box())
        self._active = self.gate.count
        if self.tracer:
            self.tracer.gauge(
                "active_voxels", self._active, cat="gating", step=step
            )
        region = self.gate.region()
        if region is None:
            return False
        kernels.tcell_age(self.block, region)
        # Attempts only succeed where signal >= min_chemokine, which the
        # freshly-refreshed region covers.
        self._extr = kernels.apply_extravasation(
            self.params, self.block, attempts, region
        )

    def phase_intents(self, step: int, attempts):
        # The clear + interior pass already ran in the boundary_exchange
        # body (overlap); only the boundary band — which reads the freshly
        # pulled ghost strips — remains.  Bitwise-equal to the monolithic
        # pass: the slabs tile the region exactly, every draw is keyed by
        # (seed, stream, step, gid), and the bid scatter is a commutative
        # elementwise max.
        slabs = self._intents_boundary
        if not slabs:
            return False
        for slab in slabs:
            kernels.tcell_intents(
                self.params, self.rng, step, self.block, self.intents, slab
            )

    def phase_resolve(self, step: int, attempts):
        # Purely local: ghost intents + merged bids make the winner
        # computation identical on both sides of every boundary.  An idle
        # region is sound — any inbound mover was visible in this rank's
        # padded activity mask at refresh time.  Reads the tiebreak view
        # (raw REPLACE fields + private merged bids); raw arrays stay
        # untouched for peers still copying.
        region = self.gate.region()
        if region is None:
            return False
        self._moves = kernels.resolve_moves(
            self.block, self._resolve_intents, region
        )
        self._binds = kernels.resolve_binds(
            self.params, self.rng, step, self.block, self._resolve_intents,
            region,
        )

    def phase_apply_results(self, step: int, attempts):
        return False

    def phase_epithelial(self, step: int, attempts):
        region = self.gate.region()
        if region is None:
            return False
        kernels.epithelial_update(
            self.params, self.rng, step, self.block, region
        )
        kernels.production_update(self.params, self.block, region, step=step)

    def phase_diffuse(self, step: int, attempts):
        # The mirror + interior pass ran in the concentration_exchange
        # body (overlap); finish the boundary band against the fresh
        # ghosts, then commit the whole region from scratch — elementwise
        # identical to the monolithic update it replaces.
        region = self.gate.region()
        if region is None:
            return False
        for slab in self._diffuse_boundary:
            kernels.concentration_update(
                self.params, self.block, slab, self._scratch_v,
                self._scratch_c,
            )
        kernels.concentration_commit(
            self.params, self.block, [region], self._scratch_v,
            self._scratch_c, step=step,
        )

    def phase_reduce(self, step: int, attempts):
        # This rank's integer statistics, counted in parallel with its
        # peers; they go out with the other totals in _publish and the
        # coordinator adds them (exact in any order).  The float totals
        # are the coordinator's: their bits depend on the solo layout.
        self._counts = self.reducer.counts(self.gate.region())
