"""Process + shared-memory orchestration for the distributed backend.

:class:`DistRuntime` owns everything that exists *outside* the simulation
math: the per-rank data segments and the control segment, the coordinator
side of the step barrier, worker process lifecycle (spawn, liveness,
join, terminate), failure diagnosis, and teardown.  The coordinator never
computes a phase — it publishes ``(step, pool)``, releases the step-start
barrier, and meets the workers again at the step-end barrier.

Robustness model:

- every barrier wait carries a timeout; on expiry the coordinator raises
  :class:`~repro.dist.control.BarrierTimeoutError` with a per-rank dump
  (rank / phase / step / heartbeat age) and flips the abort flag so every
  healthy worker unblocks and exits cleanly;
- the coordinator polls worker liveness while it waits, so a killed
  worker surfaces as :class:`~repro.dist.control.WorkerFailedError`
  naming the rank instead of a timeout-shaped hang;
- :meth:`DistRuntime.close` is idempotent, runs from ``atexit``/context
  managers, and always unlinks the shared-memory segments it created —
  an interrupted run never leaks ``/dev/shm`` entries.
"""

from __future__ import annotations

import itertools
import multiprocessing as mp
import os

from repro.core.params import SimCovParams
from repro.core.state import VoxelBlock
from repro.dist.control import (
    CMD_STEP,
    STATUS_ERROR,
    SHUTDOWN_STEP,
    BarrierTimeoutError,
    ControlBlock,
    DistAborted,
    DistError,
    ShmBarrier,
    WorkerFailedError,
    control_layout,
)
from repro.dist.shm import ShmSegment, block_layout, make_segment_name
from repro.dist.worker import (
    FaultSpec,
    WorkerSpec,
    dist_schedule,
    rank_block_box,
    telemetry_name_table,
    worker_main,
)
from repro.engine.metrics import PhaseMetrics
from repro.telemetry.shmring import RingCodec, drain_ring
from repro.grid.decomposition import Decomposition
from repro.grid.halo import HaloExchanger
from repro.grid.spec import GridSpec

#: Distinguishes segment families when one process hosts several runtimes.
_RUNTIME_IDS = itertools.count()


class DistRuntime:
    """One distributed run: segments, workers, and the coordinator's
    barrier handles."""

    def __init__(
        self,
        spec: GridSpec,
        decomp: Decomposition,
        exchanger: HaloExchanger,
        params: SimCovParams,
        seed: int,
        *,
        active_gating: bool = True,
        barrier_timeout: float = 60.0,
        start_method: str | None = None,
        fault: FaultSpec | None = None,
        telemetry_capacity: int = 0,
    ):
        self.spec = spec
        self.decomp = decomp
        self.exchanger = exchanger
        self.params = params
        self.seed = seed
        self.nranks = decomp.nranks
        self.active_gating = active_gating
        self.barrier_timeout = float(barrier_timeout)
        self.start_method = start_method
        self.fault = fault
        self.phase_names = tuple(p.name for p in dist_schedule())
        self.telemetry_capacity = int(telemetry_capacity)
        self._codec = (
            RingCodec(telemetry_name_table(self.phase_names))
            if self.telemetry_capacity > 0
            else None
        )
        self._procs: list[mp.process.BaseProcess] = []
        self._closed = False
        #: A step was released and has not met the step-end barrier yet.
        self._in_flight = False
        #: The blocks were rewritten behind the workers' backs: the next
        #: step start first releases one band-resync round.
        self._resync = False

        run_id = next(_RUNTIME_IDS)
        self._segments: list[ShmSegment] = []
        ctrl_seg = ShmSegment.create(
            make_segment_name(f"{run_id}_ctrl"),
            control_layout(
                self.nranks, len(self.phase_names), self.telemetry_capacity
            ),
        )
        self._segments.append(ctrl_seg)
        self.ctrl = ControlBlock(ctrl_seg, self.nranks, self.phase_names)
        self.segment_names: list[str] = []
        #: Coordinator-side views of every rank's block — its owned voxels
        #: and ghost band — backed by the same pages the workers mutate:
        #: gather/checkpoint/seeding all read and write through these.
        self.blocks: list[VoxelBlock] = []
        for rank in range(self.nranks):
            name = make_segment_name(f"{run_id}_r{rank}")
            box = rank_block_box(decomp.boxes[rank], spec.domain, exchanger.ghost)
            seg = ShmSegment.create(name, block_layout(box.expand(1).shape))
            self._segments.append(seg)
            self.segment_names.append(name)
            self.blocks.append(
                VoxelBlock.from_arrays(spec, box, seg.arrays, ghost=1, fresh=True)
            )
        method = start_method or "fork"
        if method not in mp.get_all_start_methods():
            method = "spawn"
        self._ctx = mp.get_context(method)
        #: What a barrier waiter parks on, one per party (ranks, then the
        #: coordinator); handed to the workers with their spec.
        self.wakers = tuple(
            self._ctx.Semaphore(0) for _ in range(self.nranks + 1)
        )
        # The coordinator is barrier party ``nranks``.
        self.step_bar = ShmBarrier(
            self.ctrl.step_bar, self.nranks, self.ctrl, label="step barrier",
            wakers=self.wakers,
        )

    # -- worker lifecycle ----------------------------------------------------

    def start(self) -> None:
        """Spawn one worker process per rank (after the blocks are seeded)."""
        ctx = self._ctx
        if ctx.get_start_method() != "fork":
            self._ensure_importable()
        # The compiled tier is not resolved here: set-up makes no compile,
        # load or probe, and each rank resolves it at its first kernel call
        # (on a cold cache, concurrent builds land atomically, DESIGN.md §4).
        for rank in range(self.nranks):
            proc = ctx.Process(
                target=worker_main,
                args=(self.worker_spec(rank),),
                name=f"repro-dist-rank{rank}",
                daemon=True,
            )
            proc.start()
            self._procs.append(proc)

    def worker_spec(self, rank: int) -> WorkerSpec:
        """Everything rank ``rank``'s worker attaches and runs with."""
        return WorkerSpec(
            rank=rank,
            nranks=self.nranks,
            params=self.params,
            seed=self.seed,
            boxes=tuple((b.lo, b.hi) for b in self.decomp.boxes),
            band=self.exchanger.ghost,
            routes=self.exchanger.pull_plan(rank).replace,
            segment_names=tuple(self.segment_names),
            ctrl_name=self.ctrl.segment.name,
            phase_names=self.phase_names,
            active_gating=self.active_gating,
            barrier_timeout=self.barrier_timeout,
            fault=self.fault,
            telemetry_capacity=self.telemetry_capacity,
            dirty_epoch=int(self.ctrl.dirty_epoch[0]),
            wakers=self.wakers,
        )

    @staticmethod
    def _ensure_importable() -> None:
        """Under spawn the children re-exec the interpreter; make sure the
        package's root is on their PYTHONPATH even when the parent got it
        via sys.path manipulation."""
        import repro

        root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        existing = os.environ.get("PYTHONPATH", "")
        if root not in existing.split(os.pathsep):
            os.environ["PYTHONPATH"] = (
                root + os.pathsep + existing if existing else root
            )

    # -- step protocol -------------------------------------------------------

    def start_step(self, step: int, pool: float) -> None:
        """Publish the step command and release the step-start barrier —
        after a restore, once before that: the workers then see the
        ``dirty_epoch`` bump and pull their whole band again, fenced by
        the step-start crossing."""
        if self._resync:
            self._resync = False
            self._step_wait()
        self.ctrl.command[CMD_STEP] = step
        self.ctrl.pool[0] = float(pool)
        self._step_wait()
        self._in_flight = True

    def finish_step(self) -> None:
        """Meet the workers at the step-end barrier; afterwards every
        per-rank result row and field array is quiescent and readable."""
        self._step_wait()
        self._in_flight = False

    def _step_wait(self) -> None:
        try:
            self.step_bar.wait(self.barrier_timeout, poll=self._check_liveness)
        except BarrierTimeoutError:
            self.ctrl.abort()  # unblock healthy workers before propagating
            raise
        except DistAborted:
            # A worker raised the flag: find out who and why.
            self._raise_worker_error()
            raise

    def _check_liveness(self) -> None:
        for rank, proc in enumerate(self._procs):
            if proc.exitcode is not None:
                self.ctrl.abort()
                raise WorkerFailedError(
                    f"worker process for rank {rank} exited with code "
                    f"{proc.exitcode} while the coordinator was waiting; "
                    f"last status: {self.ctrl.describe_rank(rank)}"
                )

    def _raise_worker_error(self) -> None:
        failed = [
            r
            for r in range(self.nranks)
            if self.ctrl.status[r, STATUS_ERROR]
        ]
        if failed:
            details = "; ".join(self.ctrl.describe_rank(r) for r in failed)
            raise WorkerFailedError(f"worker rank(s) failed: {details}")

    # -- metrics -------------------------------------------------------------

    def worker_metrics(self) -> PhaseMetrics:
        """All ranks' cumulative per-phase counters, summed."""
        merged = PhaseMetrics(self.phase_names)
        for table in self.per_rank_metrics():
            merged.merge(table)
        return merged

    def per_rank_metrics(self) -> list[PhaseMetrics]:
        """A view of each rank's table: its rows of the shared counters."""
        return [
            PhaseMetrics(self.phase_names, *self.ctrl.metric_rows(rank))
            for rank in range(self.nranks)
        ]

    def per_rank_wait_seconds(self) -> dict[str, list[float]]:
        """Cumulative barrier-wait seconds per rank, keyed by phase name
        plus the two step barriers — the load-imbalance surface of the
        strong-scaling benchmark."""
        cols = list(self.phase_names) + ["step_start", "step_end"]
        return {
            name: [float(self.ctrl.metrics_wait[r, i]) for r in range(self.nranks)]
            for i, name in enumerate(cols)
        }

    def strip_counts(self) -> tuple[int, int]:
        """Cumulative (pulled, skipped) halo-strip counts over all ranks —
        how much exchange the activity gating actually avoided."""
        pulled = int(self.ctrl.strips[:, 0].sum())
        skipped = int(self.ctrl.strips[:, 1].sum())
        return pulled, skipped

    def invalidate_ghosts(self) -> None:
        """Declare every worker's ghost band stale (call after writing
        fields behind the workers' backs, e.g. a checkpoint restore).
        The next :meth:`start_step` releases the workers once to observe
        the bump and re-pull every strip before the step starts."""
        self.ctrl.dirty_epoch[0] += 1
        self._resync = True

    # -- telemetry -----------------------------------------------------------

    def drain_telemetry(self):
        """Decode and clear every rank's telemetry ring.

        Only call in the per-step quiescent window — after
        :meth:`finish_step` returns and before the next
        :meth:`start_step` — when every worker is parked at the
        step-start barrier and the count resets race with nothing.
        Events come back sorted by timestamp (cross-rank comparable:
        ``perf_counter`` is the system-wide monotonic clock).
        """
        if self._codec is None:
            return []
        events = []
        for rank in range(self.nranks):
            events.extend(
                drain_ring(
                    self.ctrl.tel_data[rank],
                    self.ctrl.tel_count[rank : rank + 1],
                    self._codec,
                    rank,
                )
            )
        events.sort(key=lambda e: e.ts)
        return events

    def telemetry_dropped(self) -> list[int]:
        """Per-rank count of ring records lost to overflow (0 = none)."""
        return [int(n) for n in self.ctrl.tel_dropped]

    def heartbeat_ages(self, now: float) -> list[float]:
        """Seconds since each rank's last heartbeat."""
        return [
            max(0.0, now - float(self.ctrl.heartbeat[r]))
            for r in range(self.nranks)
        ]

    # -- teardown ------------------------------------------------------------

    def abort(self) -> None:
        """Flip the control-segment abort flag (idempotent; safe from
        signal handlers — one shared-memory store)."""
        if self._segments:
            self.ctrl.abort()

    def close(self) -> None:
        """Stop the workers and release every shared-memory segment.

        Safe to call repeatedly and from any failure path: after an abort
        or timeout it skips the polite shutdown and goes straight to
        join/terminate, and segment unlinking runs regardless.
        """
        if self._closed:
            return
        self._closed = True
        try:
            live = [p for p in self._procs if p.is_alive()]
            if live and not self.ctrl.aborted:
                # Polite shutdown: workers are parked at the step-start
                # barrier (once a step launched ahead has ended); publish
                # the sentinel and release them.
                self.ctrl.command[CMD_STEP] = SHUTDOWN_STEP
                try:
                    if self._in_flight:
                        self.finish_step()
                    self.step_bar.wait(min(5.0, self.barrier_timeout))
                except DistError:
                    self.ctrl.abort()
            elif live:
                self.ctrl.abort()
            for proc in self._procs:
                proc.join(timeout=5.0)
            for proc in self._procs:
                if proc.is_alive():
                    proc.terminate()
            for proc in self._procs:
                if proc.is_alive():
                    proc.join(timeout=2.0)
        finally:
            self.blocks = []
            for seg in self._segments:
                seg.close()
            self._segments = []
            # Named (and unlinked on release) under spawn / forkserver.
            self.step_bar.wakers = self.step_bar._own = self.wakers = ()

    def __enter__(self) -> "DistRuntime":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # defensive: tests should use close()/context manager
        try:
            self.close()
        except Exception:
            pass
