"""The per-rank worker process of the distributed runtime.

Each worker owns one subdomain: its :class:`~repro.core.state.VoxelBlock`
and :class:`~repro.core.kernels.IntentArrays` fields are views into its
shared-memory segment, and the segments of its halo neighbors are mapped
read-mostly, so every exchange phase is a direct strip copy between
address spaces — no serialization, no message queue.

Each worker is a :class:`RankBackend`: the single-block phase bodies of
:class:`~repro.engine.sequential.SingleBlockBackend` over its block, with
the halo exchange *between* those calls, not inside them — the
sopht-mpi shape (exchange init, the serial kernel on the interior,
exchange finalise, the serial kernel on the boundary).  It executes the
same declarative :func:`dist_schedule` the coordinator validates, in lock
step with its peers via the control segment's phase barriers (see
:mod:`repro.dist.control`).  The schedule is SIMCoV-GPU's single-wave
§3.1 tiebreak (REPLACE intents + MAX bids at ``tiebreak_exchange``;
``result_exchange`` is a structural no-op) combined with SIMCoV-CPU's
start-of-step ghost refresh, which stales the per-rank refresh-mode
:class:`~repro.engine.activity.ActivityGate` every step.

Barrier placement per step (W = workers-only phase barrier, S = the
step barrier shared with the coordinator) — the *fused* 6-barrier
protocol (4 phase + 2 step; the seed protocol used 8).  Only the
exchange phases wait; every kernel phase is a shared body::

       open pulls        gated ghost pulls in the quiescent window
                         (peers parked; previous step's fields final)
    S  step start        coordinator published (step, pool); the barrier
                         itself is the open wave's exit fence
       age_extravasate   gate sweep + publish activity box + kernels
       boundary_exchange clear intents + the intents parts before the
    W                    fence (the region's core: no ghost reads), then
                         (peers done mutating) gated T-cell strip pulls
       intents           the parts after the fence (boundary slabs, cut
                         to the T-cell box over fresh ghosts)
    W  tiebreak_exchange (intents done) ──► gated REPLACE pulls + merge
                         MAX bids into *private* buffers (raw bid arrays
                         are never mutated after intents, so no
                         snapshot fence is needed)
       resolve / epithelial
    W  concentration_exchange (production done) ──► gated pulls, then
                         mirror + the diffuse parts before the fence
                         into scratch  ──►  W
       diffuse           the parts after the fence + commit
       reduce            integer counts into the results row
    S  step end          coordinator reduces statistics

Unlabeled edges need no barrier: a reader that advances past its copy
only mutates the copied fields after a later barrier that the writer
must also have passed (verified per wave in DESIGN.md §4a).  The open
wave's pulls run *before* the step-start barrier: every peer is parked
there too, so its previous-step fields are final, and no peer can
mutate them until this worker arrives — the step-start barrier doubles
as the copies-done fence that used to cost a dedicated phase barrier.
Pulls are gated per strip by the activity boxes peers publish in the
control segment (see ``_pull_wave``); a checkpoint restore bumps
``dirty_epoch`` and forces one full re-pull + resync fence.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from repro.core.kernels import IntentArrays
from repro.core.params import SimCovParams
from repro.core.state import VoxelBlock
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
from repro.engine.engine import StepContext
from repro.engine.phases import FieldSet, Phase, exchange, kernel
from repro.engine.sequential import SingleBlockBackend
from repro.grid.box import Box
from repro.grid.halo import MergeMode, RankPullPlan, strip_live
from repro.telemetry.shmring import RingCodec, ShmRingSink
from repro.telemetry.tracer import Tracer

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
                "intent", IntentArrays.REPLACE_FIELDS, MergeMode.REPLACE
            ),
            FieldSet("intent", IntentArrays.MAX_FIELDS, MergeMode.MAX),
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
        worker = RankBackend(spec)
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


class RankBackend(SingleBlockBackend):
    """One rank: the single-block phase bodies over this rank's
    shared-memory block, the gated halo waves and fences between them
    (:meth:`exchange`), and the step loop that runs them in lock step
    with its peers.

    Overridden are only what a rank does differently: its exchanges, the
    split of the overlapped bodies at the fence (:meth:`_fence_parts`),
    ``reduce`` (integer counts, published for the coordinator) and the
    sweep, which also publishes the region box peers gate their pulls on.
    """

    name = "rank"

    def __init__(self, spec: WorkerSpec):
        self.worker_spec = spec
        self.rank = spec.rank
        self._init_common(spec.params, spec.seed)
        self.plan = spec.plan
        self._schedule = dist_schedule()
        assert tuple(p.name for p in self._schedule) == spec.phase_names
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
        # start at their sentinels.  Refresh mode: the open wave stales
        # the gate every step.
        self._init_block(
            VoxelBlock.from_arrays(
                self.spec, boxes[self.rank], mine, ghost=1, fresh=False
            ),
            spec.params.min_chemokine,
            spec.active_gating,
            tile_shape=None,
            sweep_period=1,
            intents=IntentArrays.from_arrays(
                {name: mine[f"intent_{name}"] for name in IntentArrays.FIELD_DTYPES}
            ),
        )
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
        # A single rank has nothing to merge: resolve reads the raw arrays.
        if self.plan.max_merge:
            self._merged_move_bid = np.zeros_like(self.intents.move_bid)
            self._merged_bind_bid = np.zeros_like(self.intents.bind_bid)
            self._resolve_intents = _TiebreakView(
                self.intents, self._merged_move_bid, self._merged_bind_bid
            )
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
        #: Cleared by the freeze_heartbeat fault: status keeps updating
        #: but the liveness timestamp goes stale.
        self._heartbeat_on = True

    def schedule(self) -> tuple[Phase, ...]:
        return self._schedule

    # -- lifecycle -----------------------------------------------------------

    def run(self) -> None:
        hb = lambda: self.ctrl.set_status(
            self.rank,
            int(self.ctrl.status[self.rank, 0]),
            int(self.ctrl.status[self.rank, 1]),
            heartbeat=self._heartbeat_on,
        )
        pending_end = None  # (start, dur, step) of the last step-end wait
        nphases = len(self.worker_spec.phase_names)
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
        # The global attempt schedule is a pure function of (seed, step,
        # pool), all of which the coordinator published, so every rank
        # that reads ctx.attempts draws the identical arrays.
        ctx = StepContext.start(self.params, self.rng, step, pool)
        self._step = step
        step_start = perf_counter()
        for index, phase in enumerate(self._schedule):
            self.ctrl.set_status(
                self.rank, step, index, heartbeat=self._heartbeat_on
            )
            self._maybe_fault(step, phase.name)
            start = perf_counter()
            ran = self.execute(phase, ctx)
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
        self._publish(ctx)

    def _maybe_fault(self, step: int, phase_name: str) -> None:
        fault = self.worker_spec.fault
        if fault is None or fault.rank != self.rank or fault.phase != phase_name:
            return
        if fault.mode == "slow":
            # A straggler: late every affected step, but never failing.
            if step >= fault.step:
                time.sleep(fault.delay)
        elif fault.mode == "freeze_heartbeat":
            if step >= fault.step:
                self._heartbeat_on = False
        elif step != fault.step:
            return
        elif fault.mode == "die":
            os._exit(13)
        elif fault.mode == "error":
            raise InjectedFault(
                f"injected fault: rank {self.rank} errored in "
                f"{phase_name!r} at step {step}"
            )
        else:
            while not self.ctrl.aborted:  # stall (status stays frozen here)
                time.sleep(0.005)
            raise DistAborted(f"aborted while stalled in {phase_name!r}")

    def _publish(self, ctx) -> None:
        """Per-step totals + cumulative waits and strip counts, read by
        the coordinator after the step-end barrier (``reduce`` already
        wrote the integer statistics)."""
        row = self.ctrl.results[self.rank]
        row[RES_EXTRAVASATIONS] = ctx.extravasations
        row[RES_MOVES] = ctx.moves
        row[RES_BINDS] = ctx.binds
        row[RES_ACTIVE] = self.gate.count
        self.ctrl.metrics_wait[self.rank] = self._wait
        self.ctrl.strips[self.rank, STRIPS_PULLED] += self._pulled_step
        self.ctrl.strips[self.rank, STRIPS_SKIPPED] += self._skipped_step
        if self.tracer and (self._pulled_step or self._skipped_step):
            self.tracer.counter(
                "strips_pulled", self._pulled_step, cat="comm", step=ctx.step
            )
            self.tracer.counter(
                "strips_skipped", self._skipped_step, cat="comm", step=ctx.step
            )

    # -- exchange phases -----------------------------------------------------

    def exchange(self, phase: Phase, ctx):
        if not phase.exchanges:  # result_exchange: single-wave tiebreak
            return False
        return getattr(self, f"_{phase.name}")(phase, ctx)

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

    def _slices(self, src_rank: int, box: Box):
        """``box`` (global) in ``src_rank``'s block, then in this one's."""
        origins = self.plan.origins
        return box.slices_from(origins[src_rank]), box.slices_from(origins[self.rank])

    def _copy(self, src_rank: int, box: Box, keys) -> int:
        """Copy a global sub-box of ``keys`` from ``src_rank``; returns
        bytes moved."""
        src, mine = self.arrays[src_rank], self.arrays[self.rank]
        ssl, dsl = self._slices(src_rank, box)
        nbytes = 0
        for key in keys:
            strip = src[key][ssl]
            mine[key][dsl] = strip
            nbytes += strip.nbytes
        return nbytes

    def _account(self, phase: Phase, nbytes: int, pulled: int, skipped: int):
        """Add one wave's strip counts to the step's; True if it pulled."""
        self._pulled_step += pulled
        self._skipped_step += skipped
        if self.tracer and nbytes:
            self.tracer.counter(
                "halo_bytes", nbytes, cat="comm", step=self._step,
                phase=phase.name,
            )
        return pulled > 0

    # -- the gated waves ----------------------------------------------------

    def _pull_wave(self, keys, marks, cleans) -> tuple[int, int, int]:
        """One gated REPLACE wave over the per-route dirty flags of the
        waves in ``marks`` (this wave's first).  A strip the source's
        published activity box touches turns dirty for every wave in
        ``marks``; the wave pulls the strips dirty for it, which cleans
        them for the waves in ``cleans``.  Returns (bytes, pulled,
        skipped)."""
        dirty = marks[0]
        ndim = len(self.plan.origins[self.rank])
        nbytes = pulled = 0
        for i, route in enumerate(self.plan.replace):
            if strip_live(
                self._route_boxes[i], self.ctrl.read_region(route.src, ndim)
            ):
                for flags in marks:
                    flags[i] = True
            if dirty[i]:
                nbytes += self._copy(route.src, route.region, keys)
                for flags in cleans:
                    flags[i] = False
                pulled += 1
        return nbytes, pulled, len(self.plan.replace) - pulled

    def _early_open_pull(self) -> None:
        """Gated open-wave ghost pulls in the pre-step quiescent window.

        Every peer is parked at the step-start barrier, so its previous-
        step fields are final and stay frozen until this worker arrives —
        the barrier itself is the copies-done fence.  Liveness is judged
        against the regions peers published *last* step (exactly the box
        their writes since our previous pull were confined to), so a live
        strip is stale for the in-step waves too.  OPEN_FIELDS covers the
        concentrations, so a pull freshens the concentration wave's view
        as well; the tissue/bound times are *not* in the open wave, so the
        boundary wave stays dirty until it pulls them itself.  No ring
        writes here (the coordinator is draining); telemetry is stashed
        and accounted in the open_exchange phase body.
        """
        start = perf_counter()
        pulls = self._pull_wave(
            OPEN_FIELDS,
            (self._dirty_open, self._dirty_bnd, self._dirty_conc),
            (self._dirty_open, self._dirty_conc),
        )
        self._pending_open = (perf_counter() - start, *pulls)

    def _open_exchange(self, phase: Phase, ctx):
        """Account the pre-step pulls (see :meth:`_early_open_pull`): the
        copies themselves already ran in the quiescent window.  The ghosts
        are fresh, so the gate is stale: ``age_extravasate`` sweeps."""
        seconds, *pulls = self._pending_open
        self._pending_open = None
        self.gate.stale = True
        self._extra_seconds += seconds
        return self._account(phase, *pulls)

    def _state_wave(self, phase: Phase, dirty) -> bool:
        """One gated in-step REPLACE wave of ``phase``'s fields."""
        keys = [k for fs in phase.exchanges for k in self._keys(fs)]
        return self._account(phase, *self._pull_wave(keys, (dirty,), (dirty,)))

    @staticmethod
    def _keys(fs: FieldSet) -> list[str]:
        prefix = "intent_" if fs.scope == "intent" else ""
        return [prefix + name for name in fs.fields]

    def _boundary_exchange(self, phase: Phase, ctx):
        """Overlap: clear the intents and run the intents parts before the
        fence — the region's core, whose stencil never leaves this rank's
        non-ghost cells — then fence on peers and pull the T-cell strips
        the boundary slabs need.  The clear is the dirty slab (region
        grown by one voxel, united with last step's): the intents kernel
        scatters bids one voxel outward, and the tiebreak's REPLACE copies
        land in ghost cells of ``region_box().expand(1)`` — the same slab
        — so every cell outside it still holds the sentinel a peer's pull
        or max-merge expects."""
        self._open_intents(ctx)
        # Entry barrier: peers are done mutating T-cell fields; the next
        # mutation (resolve) sits behind the tiebreak barrier, which every
        # reader passes first.
        self._phase_barrier(phase.name)
        ran = self._state_wave(phase, self._dirty_bnd)
        return ran or self.gate.region() is not None

    def _tiebreak_exchange(self, phase: Phase, ctx):
        """The single tiebreak wave: entry barrier (everyone's intents are
        final — raw arrays are never mutated after the intents phase),
        then gated REPLACE pulls of neighbor intents cropped to the
        one-voxel neighborhood resolve actually reads, then max-merge the
        bid strips into this rank's *private* buffers.  No exit fence:
        peers still copying read only raw arrays, whose next mutation
        (next step's clear) sits behind the concentration barriers."""
        self._phase_barrier(phase.name)
        my_box = self.gate.region_box()
        if my_box is None:
            # No resolve this step: no intent ghosts are read.  Peers pull
            # this rank's raw (fully cleared) arrays directly.
            self._skipped_step += len(self.plan.replace) + len(self.plan.max_merge)
            return False
        read_box = my_box.expand(1)
        ndim = len(self.plan.origins[self.rank])
        keys = [
            k for fs in phase.exchanges if fs.merge is MergeMode.REPLACE
            for k in self._keys(fs)
        ]
        nbytes = pulled = 0
        for route in self.plan.replace:
            box = route.region.intersect(read_box)
            if not box.is_empty and strip_live(
                box, self.ctrl.read_region(route.src, ndim), dilate=1
            ):
                nbytes += self._copy(route.src, box, keys)
                pulled += 1
        nbytes += self._merge_max_bids(read_box, ndim)
        self._account(phase, nbytes, pulled, len(self.plan.replace) - pulled)
        return True

    def _merge_max_bids(self, read_box: Box, ndim: int) -> int:
        """Refresh the private merged-bid buffers: copy this rank's raw
        bids over the resolve read neighborhood, then max-merge every live
        neighbor strip (cropped to that neighborhood) on top.  Raw bid
        arrays — this rank's and every peer's — are left untouched, which
        is what makes the merge fence-free."""
        if not self.plan.max_merge:
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
            ssl, dsl = self._slices(route.src, box)
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

    def _concentration_exchange(self, phase: Phase, ctx):
        """Entry barrier (production done everywhere), gated concentration
        pulls, then — overlapping any peer still copying — the no-flux
        mirror and the diffusion parts before the fence, into scratch.
        The exit barrier fences the copies from the diffuse phase's
        commit, which overwrites the owned strips peers read."""
        self._phase_barrier(phase.name)
        self._state_wave(phase, self._dirty_conc)
        self._open_diffuse(ctx)
        self._phase_barrier(phase.name)
        return True

    def _resync(self, step: int) -> None:
        """Honor a ghost-invalidation epoch bump (checkpoint restore wrote
        fields behind the workers' backs): drop what was derived from the
        old state (:meth:`state_restored`), re-pull every exchanged field
        unconditionally, since every strip may be stale, then fence so no
        rank starts mutating restored state a peer is still copying.
        Every worker observes the same bump at the same step-start, so the
        extra phase-barrier epoch stays in lock step."""
        start = perf_counter()
        self.state_restored()
        keys = sorted({*OPEN_FIELDS, *BOUNDARY_FIELDS, *CONCENTRATION_FIELDS})
        waves = (self._dirty_open, self._dirty_bnd, self._dirty_conc)
        for flags in waves:
            flags[:] = [True] * len(flags)
        self._pulled_step += self._pull_wave(keys, waves, waves)[1]
        self._phase_barrier("resync")
        self._extra_seconds += perf_counter() - start

    # -- what a rank does differently ----------------------------------------

    def _fence_parts(self, region):
        """The stencil-safe core of ``region`` runs before the fence, the
        boundary slabs after it (a region too thin for a core waits
        whole: the slabs of a failed split do not tile it)."""
        if region is None:
            return (), ()
        interior, slabs = split_interior_boundary(
            region, self.block.virions.shape, self.block.ghost
        )
        return ((), (region,)) if interior is None else ((interior,), tuple(slabs))

    def _sweep(self) -> None:
        super()._sweep()
        # Strip-liveness handshake: peers gate their pulls on this box.
        # Published before this rank's boundary-entry barrier arrival, so
        # every in-step reader (fenced behind that barrier) sees it; the
        # next step's early pulls are fenced by step_end/step_start.
        self.ctrl.publish_region(self.rank, self.gate.region_box())
        if self.tracer:
            self.tracer.gauge(
                "active_voxels", self.gate.count, cat="gating", step=self._step
            )

    def phase_reduce(self, ctx):
        # This rank's integer statistics, counted in parallel with its
        # peers; the coordinator adds them (exact in any order).  The
        # float totals are the coordinator's: their bits depend on the
        # solo layout.
        self.ctrl.results[self.rank, RES_COUNTS] = self.reducer.counts(
            self.gate.region()
        )
