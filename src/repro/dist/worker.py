"""The per-rank worker process of the distributed runtime.

Each worker owns one subdomain and steps it as a single block: a
:class:`RankBackend` is :class:`~repro.engine.sequential.SingleBlockBackend`
over the rank's owned voxels plus a ghost band
:func:`~repro.engine.sequential.step_reach` deep — one step's dependency
cone.  Every draw is keyed by ``(seed, stream, step, gid)`` and every
kernel reads at most its neighbourhood, so with the band at its
step-start values the rank computes its owned voxels' next state itself,
bitwise, with no peer: the §3.1 argument (one exchange, every device
resolving the same way) taken one level up.  The band's own updates are
provisional, the rank's copy of another rank's truth.

The block's fields are views into the rank's shared-memory segment, and
the segments of the ranks its band overlaps are mapped read-mostly, so
the band refresh is a direct strip copy between address spaces — no
serialization, no message queue.  It happens once a step, in the
quiescent window before the step-start barrier::

       open pulls        gated band pulls: every peer is parked at the
                         step barrier too, its previous-step fields final
    S  step start        coordinator published (step, pool); the barrier
                         itself is the pulls' exit fence
       open_exchange     accounts the pulls; a changed band or a due
                         period stales the gate
       age_extravasate   gate sweep (if stale), then the single-block
       .. diffuse        bodies over owned + band
       reduce            owned integer counts into the results row; the
                         box of the step's owned writes is published
    S  step end          coordinator reduces statistics

S is the step barrier shared with the coordinator; no barrier sits
inside a step.  A strip is pulled when the owner's published box
(last step's writes to what it owns) touches it, or when this rank's own
writes did (its provisional values in the band); a checkpoint restore
bumps ``dirty_epoch``, and the coordinator releases one extra
step-barrier round in which every rank re-pulls its whole band.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from time import perf_counter

import numpy as np

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
from repro.engine.engine import StepContext
from repro.engine.metrics import PhaseMetrics
from repro.engine.phases import Phase
from repro.engine.sequential import SingleBlockBackend, step_reach
from repro.grid.box import Box
from repro.grid.halo import PullRoute, strip_live
from repro.telemetry.shmring import RingCodec, ShmRingSink
from repro.telemetry.tracer import Tracer

#: What the band carries: every field a band update reads — all of them.
BAND_FIELDS = tuple(VoxelBlock.FIELD_DTYPES)


def dist_schedule() -> tuple[Phase, ...]:
    """The multi-process schedule: the one pull a step, then the
    single-block kernel phases; no tile_sweep (a rank sweeps at the top
    of ``age_extravasate``, when the pull or the period stales its gate)."""
    return tuple(map(Phase, (
        "open_exchange", "age_extravasate", "intents", "resolve", "epithelial",
        "diffuse", "reduce",
    )))


def _crop(box: Box | None, to: Box) -> Box | None:
    """``box`` cropped to ``to``; None if either is empty."""
    box = None if box is None else box.intersect(to)
    return None if box is None or box.is_empty else box


def rank_block_box(owned: Box, domain: Box, band: int) -> Box:
    """The voxels a rank's block steps: its owned box grown by all but the
    outermost layer of its band, which is the block's ghost ring, clipped
    to the domain (beyond a domain edge, the ring is the no-flux one)."""
    return owned.expand(band - 1).intersect(domain)


def telemetry_name_table(phase_names) -> tuple[str, ...]:
    """The shared ``"cat:name"`` interning table for the telemetry rings.

    Both the coordinator and every worker derive this tuple from the
    phase-name list they already agree on, so ring records can carry a
    small integer instead of a string (see
    :mod:`repro.telemetry.shmring`).  Order is the id assignment — append
    only.
    """
    names = [f"phase:{n}" for n in phase_names]
    names += ["barrier:step_start", "barrier:step_end", "step:step"]
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
      stop refreshing the heartbeat, so its heartbeat age grows while the
      run stays healthy.

    ``repeat`` is read by a run's retry loop
    (:func:`repro.serve.runner.run_job`): the fault is re-injected into
    the first ``repeat - 1`` rebuilt runtimes, so multi-restart and
    restart-exhaustion paths are testable deterministically.
    """

    rank: int
    step: int
    phase: str
    mode: str  # one of FAULT_MODES
    #: Seconds a "slow" rank sleeps per affected phase.
    delay: float = 0.05
    #: How many runtime incarnations the fault fires in (read by run_job).
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
    #: Width of the ghost band the segments were laid out for.
    band: int
    #: The band strips this rank pulls (its halo plan's REPLACE routes).
    routes: tuple[PullRoute, ...]
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
    #: round), and only the coordinator can snapshot it consistently.
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


class RankBackend(SingleBlockBackend):
    """One rank: the single-block step over its owned voxels and ghost
    band, the gated pull that refreshes the band before each step, and
    the step loop that runs them in lock step with its peers.

    Overridden are only what a rank does differently: its one exchange,
    the restore hook (the next pull takes the whole band), ``reduce``
    (integer counts, published for the coordinator) and the sweep, which
    also counts the owned active voxels and restarts the clock the
    published box of writes grows by.
    """

    name = "rank"

    def __init__(self, spec: WorkerSpec):
        self.worker_spec = spec
        self.rank = spec.rank
        self._init_common(spec.params, spec.seed)
        self._schedule = dist_schedule()
        assert tuple(p.name for p in self._schedule) == spec.phase_names
        # The band must hold one step's dependency cone (the check
        # sopht-mpi makes of a ghost size against a kernel's support).
        if spec.band < step_reach():
            raise ValueError(
                f"rank {spec.rank}: ghost band {spec.band} is narrower than "
                f"one step's reach, {step_reach()}"
            )
        self.ctrl: ControlBlock | None = None
        self._segments: list[ShmSegment] = []

        boxes = [Box(lo, hi) for lo, hi in spec.boxes]
        # Attach the control segment and the data segments of self + every
        # rank the band overlaps; build zero-copy views.
        ctrl_seg = ShmSegment.attach(
            spec.ctrl_name,
            control_layout(
                spec.nranks, len(spec.phase_names), spec.telemetry_capacity
            ),
        )
        self._segments.append(ctrl_seg)
        self.ctrl = ControlBlock(ctrl_seg, spec.nranks, spec.phase_names)
        #: The table this rank times into: its rows of the shared counters.
        self.metrics = PhaseMetrics(
            spec.phase_names, *self.ctrl.metric_rows(self.rank)
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
        arrays, origins = {}, {}
        for r in {self.rank, *(route.src for route in spec.routes)}:
            padded = rank_block_box(boxes[r], self.spec.domain, spec.band).expand(1)
            seg = ShmSegment.attach(spec.segment_names[r], block_layout(padded.shape))
            self._segments.append(seg)
            arrays[r], origins[r] = seg.arrays, padded.lo
        #: This rank's owned box (global); the block holds its band too.
        self.owned = boxes[self.rank]
        # The coordinator created + initialized (zero, tissue, seeds) the
        # field storage, so adopt it as-is.  The gate sweeps like a single
        # block's, and also whenever a pull changed the band.
        block = VoxelBlock.from_arrays(
            self.spec, rank_block_box(self.owned, self.spec.domain, spec.band),
            arrays[self.rank], ghost=1, fresh=False,
        )
        self._init_block(
            block,
            spec.params.min_chemokine,
            spec.active_gating,
            tile_shape=None,
            sweep_period=None,
            counted=self.owned.slices_from(block.origin),
        )
        # Pulls land anywhere in the band: every sweep examines all of it.
        self.gate.shell = spec.band
        #: Each band strip: (route, source view per field, own view per field).
        self._strips = [
            (
                route,
                [arrays[route.src][k][route.region.slices_from(origins[route.src])]
                 for k in BAND_FIELDS],
                [arrays[self.rank][k][route.region.slices_from(origins[self.rank])]
                 for k in BAND_FIELDS],
            )
            for route in spec.routes
        ]
        #: Pull every strip at the next pull: the first, and after a restore.
        self._pull_all = True
        #: Ghost-invalidation epoch last honored (a checkpoint restore
        #: bumps the shared counter; see :meth:`run`).
        self._seen_epoch = int(spec.dirty_epoch)
        #: The last pull: (seconds, pulled, skipped), accounted by
        #: the open_exchange phase body (no ring writes before the step).
        self._pending_open = (0.0, 0, 0)
        #: Active voxels of the owned box, as of the last sweep.
        self._active = 0
        #: Steps finished since the last sweep, and the box (global) of
        #: this rank's writes in the last one: see :meth:`_publish`.
        self._since_sweep = 0
        self._written: Box | None = None
        #: Barrier-wait seconds per phase + [step_start, step_end].
        self._wait = np.zeros(len(spec.phase_names) + 2)
        self._extra_seconds = 0.0
        self.step_bar = ShmBarrier(
            self.ctrl.step_bar, self.rank, self.ctrl, label="step barrier",
            wakers=spec.wakers,
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
            # The band pull runs here, in the quiescent window: every peer
            # is parked at this same barrier, so its fields are final, and
            # none can mutate them until this worker arrives.  No ring
            # writes in this window (the coordinator is draining).
            self._pull()
            t0 = perf_counter()
            self.step_bar.wait(self.timeout, heartbeat=hb)
            t1 = perf_counter()
            self._wait[nphases] += t1 - t0
            step = int(self.ctrl.command[CMD_STEP])
            if step == SHUTDOWN_STEP:
                return
            epoch = int(self.ctrl.dirty_epoch[0])
            if epoch != self._seen_epoch:
                # A restore rewrote the blocks while every rank was parked
                # (its writes may have raced the pull above): this round
                # releases the ranks to pull their whole band again, and
                # the next crossing is the step start.
                self._seen_epoch = epoch
                self.state_restored()
                continue
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
        step_start = perf_counter()
        for index, phase in enumerate(self._schedule):
            self.ctrl.set_status(
                self.rank, step, index, heartbeat=self._heartbeat_on
            )
            self._maybe_fault(step, phase.name)
            start = perf_counter()
            ran = self.execute(phase, ctx)
            # Work done outside the phase loop on this phase's behalf
            # (the pre-step pull) is charged here.
            elapsed = perf_counter() - start + self._extra_seconds
            self._extra_seconds = 0.0
            skipped = ran is False
            self.metrics.observe(index, elapsed, skipped)
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
        """Per-step totals + cumulative waits, read by the coordinator
        after the step-end barrier (``reduce`` already wrote the integer
        statistics)."""
        row = self.ctrl.results[self.rank]
        row[RES_EXTRAVASATIONS] = ctx.extravasations
        row[RES_MOVES] = ctx.moves
        row[RES_BINDS] = ctx.binds
        row[RES_ACTIVE] = self._active
        self.ctrl.metrics_wait[self.rank] = self._wait
        # Strip-liveness handshake: peers gate their next pull on the part
        # of this step's writes in the voxels this rank owns (the band is
        # another rank's truth), read behind the step-end barrier; this
        # rank gates on all of it.
        self._written = self._writes_box()
        self.ctrl.publish_region(self.rank, _crop(self._written, self.owned))
        self._since_sweep += 1

    def _writes_box(self) -> Box | None:
        """The box (global) of this step's writes: the raw activity the
        last sweep saw, grown by a voxel for every step since (activity
        spreads no faster) and one more for the writes' reach, in the
        region."""
        hull, region = self.gate.hull, self.gate.region_box()
        if hull is None or region is None:
            return None
        origin = self.block.origin
        seen = Box(
            tuple(o + s.start for o, s in zip(origin, hull)),
            tuple(o + s.stop for o, s in zip(origin, hull)),
        )
        return _crop(seen.expand(self._since_sweep + 1), region)

    # -- the one exchange ------------------------------------------------------

    def _pull(self) -> None:
        """Refresh the ghost band, in the quiescent window before a step.

        Every peer is parked at the step-start barrier, so its fields are
        final and stay frozen until this worker arrives — the barrier is
        the copies-done fence.  A strip is stale when its owner wrote into
        it last step (the owned box the owner published) or this rank did
        (:meth:`_writes_box`: the band's provisional values); the others
        still hold the owner's bytes.  Timings are stashed for the open_exchange
        phase body: no ring writes here (the coordinator is draining).
        """
        start = perf_counter()
        ndim = self.spec.ndim
        mine = self._written
        pulled = 0
        for route, src, dst in self._strips:
            box = route.region
            if (self._pull_all or strip_live(box, mine)
                    or strip_live(box, self.ctrl.read_region(route.src, ndim))):
                for s, d in zip(src, dst):
                    d[...] = s
                pulled += 1
        self._pull_all = False
        if pulled:  # the band's edge layers: the next mirror reaches every face
            self._mirrored = self.block.interior
        self._pending_open = (
            perf_counter() - start, pulled, len(self._strips) - pulled
        )

    def phase_open_exchange(self, ctx) -> None:
        """Account the pull that ran before the step (:meth:`_pull`) — a
        call even when it pulled nothing.  The gate is stale when the pull
        changed the band — activity arriving from a peer, which no sweep
        has seen — or when its period is due (what ``tile_sweep`` does on
        one block): ``age_extravasate`` sweeps.
        Between sweeps nothing but this rank's kernels writes its block,
        so the single block's periodic rule holds."""
        seconds, pulled, skipped = self._pending_open
        if pulled or ctx.step % self.gate.sweep_period == 0:
            self.gate.stale = True
        self._extra_seconds += seconds
        self.ctrl.strips[self.rank, STRIPS_PULLED] += pulled
        self.ctrl.strips[self.rank, STRIPS_SKIPPED] += skipped

    # -- what a rank does differently ----------------------------------------

    def state_restored(self) -> None:
        super().state_restored()
        self._pull_all = True

    def _sweep(self) -> None:
        super()._sweep()
        self._since_sweep = 0
        box = _crop(self.gate.region_box(), self.owned)
        self._active = 0 if box is None else int(
            np.count_nonzero(self.gate.mask[box.slices_from(self.block.owned.lo)])
        )

    def phase_reduce(self, ctx):
        # This rank's owned integer statistics, counted in parallel with
        # its peers; the coordinator adds them (exact in any order).  The
        # float totals are the coordinator's: their bits depend on the
        # solo layout.
        self.ctrl.results[self.rank, RES_COUNTS] = self.reducer.counts(
            self.gate.region()
        )
