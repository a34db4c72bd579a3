"""The distributed runtime's control plane.

One small shared-memory segment carries everything the coordinator and
the workers use to run the versioned barrier protocol:

- ``flags``  — [abort] (any process sets it to wake every barrier waiter);
- ``command`` — [step] published by the coordinator before releasing the
  step-start barrier (−1 = shut down), plus the float64 ``pool`` value the
  extravasation-attempt schedule is derived from;
- ``step_bar`` — arrival epochs of the step-start/step-end barrier
  (parties: every worker + the coordinator), the only barrier: no rank
  waits inside a step;
- ``status``  — per-rank (step, phase index, error code) + a float64
  heartbeat timestamp, the diagnostic surface a barrier timeout dumps;
- ``results`` — per-rank per-step integer totals (extravasations, moves,
  binds, active voxels, then the rank's six integer statistics);
- ``region``  — per-rank strip-liveness handshake: at the end of each
  step each worker publishes the box of that step's writes to the voxels
  it owns, in global coordinates (or an idle flag); peers consult it to
  skip pulling band strips the owner did not write;
- ``dirty_epoch`` — a monotonic ghost-invalidation counter the
  coordinator bumps after writing fields behind the workers' backs
  (checkpoint restore); workers that see it change re-pull every strip;
- ``metrics_*`` — per-rank cumulative :class:`PhaseMetrics` counters;
- ``metrics_wait`` — per-rank barrier-wait seconds attributed to the
  phase the wait belongs to (0: no phase waits) plus two trailing
  columns for the step-start/step-end barriers;
- ``strips`` — per-rank cumulative (pulled, skipped) band-strip counts,
  the activity-gated exchange's effectiveness;
- ``tel_*`` — per-rank fixed-record telemetry rings (phase, barrier and
  step spans encoded by :mod:`repro.telemetry.shmring`), present only
  when the runtime was built with ``telemetry_capacity > 0``; the
  coordinator drains them in the per-step quiescent window.

The barrier is a *versioned arrival vector*: party ``i`` bumps its own
epoch slot, then waits until every slot reaches that epoch.  Slots only
grow, so consecutive barriers reuse one vector without a reset phase
(a fast party already at epoch ``e+1`` trivially satisfies waiters at
``e``).  A waiter parks on its own semaphore and every arrival posts the
other parties' — no timer runs while a party waits, because ranks share
cores with each other, the coordinator and whatever else the host runs
(DESIGN.md §4a "How a barrier waits").
"""

from __future__ import annotations

import threading
import time

import numpy as np

from repro.core.stats import N_COUNTS
from repro.dist.shm import ShmSegment

#: ``flags`` slot indices.
FLAG_ABORT = 0
#: ``command`` slot indices.
CMD_STEP = 0
#: ``status`` integer columns.
STATUS_STEP, STATUS_PHASE, STATUS_ERROR = 0, 1, 2
#: ``results`` columns.
RES_EXTRAVASATIONS, RES_MOVES, RES_BINDS, RES_ACTIVE = 0, 1, 2, 3
#: The rank's integer statistics (the leading REDUCED_FIELDS).
RES_COUNTS = slice(4, 4 + N_COUNTS)
#: ``region`` row layout: a liveness flag + a 3D-padded global box.
REGION_FLAG, REGION_LO, REGION_HI = 0, 1, 4
#: ``region`` liveness-flag values.
REGION_IDLE, REGION_LIVE = 0, 1
#: ``strips`` columns.
STRIPS_PULLED, STRIPS_SKIPPED = 0, 1
#: Sentinel published as CMD_STEP to request worker shutdown.
SHUTDOWN_STEP = -1


class DistError(RuntimeError):
    """Base class for distributed-runtime failures."""


class DistAborted(DistError):
    """The abort flag was raised while waiting (peer failure or shutdown)."""


class BarrierTimeoutError(DistError):
    """A barrier did not complete within the configured timeout."""


class WorkerFailedError(DistError):
    """A worker process exited while the coordinator was waiting on it."""


def control_layout(nranks: int, nphases: int, telemetry_capacity: int = 0):
    """Layout of the control segment (see module docstring).

    ``telemetry_capacity`` is the per-rank telemetry-ring record count;
    0 (telemetry off) lays the rings out with zero rows so the layout —
    and therefore the segment size both sides compute — stays in lock
    step between coordinator and workers.
    """
    from repro.telemetry.shmring import RECORD_WIDTH

    cap = int(telemetry_capacity)
    return [
        ("flags", (1,), np.dtype(np.int64)),
        ("command", (1,), np.dtype(np.int64)),
        ("pool", (1,), np.dtype(np.float64)),
        ("step_bar", (nranks + 1,), np.dtype(np.int64)),
        ("status", (nranks, 3), np.dtype(np.int64)),
        ("heartbeat", (nranks,), np.dtype(np.float64)),
        ("results", (nranks, RES_COUNTS.stop), np.dtype(np.int64)),
        ("region", (nranks, 7), np.dtype(np.int64)),
        ("dirty_epoch", (1,), np.dtype(np.int64)),
        ("metrics_seconds", (nranks, nphases), np.dtype(np.float64)),
        ("metrics_calls", (nranks, nphases), np.dtype(np.int64)),
        ("metrics_skips", (nranks, nphases), np.dtype(np.int64)),
        ("metrics_wait", (nranks, nphases + 2), np.dtype(np.float64)),
        ("strips", (nranks, 2), np.dtype(np.int64)),
        ("tel_data", (nranks, cap, RECORD_WIDTH), np.dtype(np.float64)),
        ("tel_count", (nranks,), np.dtype(np.int64)),
        ("tel_dropped", (nranks,), np.dtype(np.int64)),
    ]


class ControlBlock:
    """Typed accessor over the control segment's arrays."""

    def __init__(self, segment: ShmSegment, nranks: int, phase_names: tuple[str, ...]):
        self.segment = segment
        self.nranks = nranks
        self.phase_names = tuple(phase_names)
        a = segment.arrays
        self.flags = a["flags"]
        self.command = a["command"]
        self.pool = a["pool"]
        self.step_bar = a["step_bar"]
        self.status = a["status"]
        self.heartbeat = a["heartbeat"]
        self.results = a["results"]
        self.region = a["region"]
        self.dirty_epoch = a["dirty_epoch"]
        self.metrics_seconds = a["metrics_seconds"]
        self.metrics_calls = a["metrics_calls"]
        self.metrics_skips = a["metrics_skips"]
        self.metrics_wait = a["metrics_wait"]
        self.strips = a["strips"]
        self.tel_data = a["tel_data"]
        self.tel_count = a["tel_count"]
        self.tel_dropped = a["tel_dropped"]

    # -- abort flag ----------------------------------------------------------

    @property
    def aborted(self) -> bool:
        return bool(self.flags[FLAG_ABORT])

    def abort(self) -> None:
        self.flags[FLAG_ABORT] = 1

    # -- per-rank status -----------------------------------------------------

    def set_status(
        self, rank: int, step: int, phase: int, heartbeat: bool = True
    ) -> None:
        self.status[rank, STATUS_STEP] = step
        self.status[rank, STATUS_PHASE] = phase
        if heartbeat:  # a frozen heartbeat (fault injection) stays stale
            self.heartbeat[rank] = time.monotonic()

    # -- strip-liveness handshake --------------------------------------------

    def publish_region(self, rank: int, box) -> None:
        """Publish the box of ``rank``'s writes this step (a :class:`Box`
        in global coordinates, or None when the rank is idle this step).

        Written by the owning worker at the end of its step and read by
        peers and the coordinator only on the far side of the step-end
        barrier the writer has also passed, so each step's value is
        stable for every reader.
        """
        row = self.region[rank]
        if box is None:
            row[REGION_FLAG] = REGION_IDLE
            return
        # Pad to 3 axes so one row shape serves 2D and 3D domains.
        lo = tuple(box.lo) + (0,) * (3 - len(box.lo))
        hi = tuple(box.hi) + (1,) * (3 - len(box.hi))
        row[REGION_LO:REGION_LO + 3] = lo
        row[REGION_HI:REGION_HI + 3] = hi
        row[REGION_FLAG] = REGION_LIVE

    def read_region(self, rank: int, ndim: int):
        """The box :meth:`publish_region` stored for ``rank`` (None=idle)."""
        from repro.grid.box import Box

        row = self.region[rank]
        if row[REGION_FLAG] != REGION_LIVE:
            return None
        return Box(
            tuple(int(v) for v in row[REGION_LO:REGION_LO + ndim]),
            tuple(int(v) for v in row[REGION_HI:REGION_HI + ndim]),
        )

    def metric_rows(self, rank: int) -> tuple:
        """Rank ``rank``'s (seconds, calls, skips) rows: its phase table."""
        return (self.metrics_seconds[rank], self.metrics_calls[rank],
                self.metrics_skips[rank])

    def phase_name(self, index: int) -> str:
        if 0 <= index < len(self.phase_names):
            return self.phase_names[index]
        return f"phase#{index}"

    def describe_rank(self, rank: int) -> str:
        step = int(self.status[rank, STATUS_STEP])
        phase = self.phase_name(int(self.status[rank, STATUS_PHASE]))
        age = time.monotonic() - float(self.heartbeat[rank])
        return (
            f"rank {rank}: phase {phase!r} at step {step} "
            f"(last heartbeat {age:.1f}s ago)"
        )


#: Longest a parked waiter goes without looking at the abort flag, its
#: deadline, its heartbeat and (the coordinator) worker liveness.
_PARK_SECONDS = 0.005


class ShmBarrier:
    """One party's handle on a versioned arrival-vector barrier.

    ``slots`` is the shared epoch vector; ``party`` is this process's
    slot.  Every participant must call :meth:`wait` the same number of
    times, in the same order relative to the other barriers it shares
    epochs with — which the lock-step phase schedule guarantees.
    """

    def __init__(self, slots: np.ndarray, party: int, ctrl: ControlBlock,
                 label: str = "barrier", wakers=()):
        self.slots = slots
        self.party = int(party)
        self.ctrl = ctrl
        self.label = label
        self.epoch = 0
        #: One ``multiprocessing`` semaphore per party, in slot order
        #: (:attr:`DistRuntime.wakers`).  A barrier driven by hand has
        #: none: it wakes nobody and parks on one that nobody posts.
        self.wakers = tuple(wakers)
        self._own = (
            self.wakers[self.party] if self.wakers else threading.Semaphore(0)
        )

    def wait(self, timeout: float, poll=None, heartbeat=None) -> None:
        """Arrive and block until every party reaches this epoch.

        ``poll()`` (optional) runs every iteration — the coordinator uses
        it to watch worker liveness and may raise.  ``heartbeat()``
        (optional) lets a healthy-but-blocked worker keep its heartbeat
        fresh so timeout diagnostics single out the genuinely stalled
        rank.  Raises :class:`DistAborted` if the abort flag goes up and
        :class:`BarrierTimeoutError` with a per-rank dump on timeout.
        """
        park = self._own.acquire
        while park(False):  # posts of arrivals already in ``slots``
            pass
        self.epoch += 1
        self.slots[self.party] = self.epoch
        # Store, then post: whoever parked before seeing this arrival is
        # woken by it, so a wake-up cannot be lost.
        for party, waker in enumerate(self.wakers):
            if party != self.party:
                waker.release()
        deadline = time.monotonic() + timeout
        while True:
            if (self.slots >= self.epoch).all():
                return
            if self.ctrl.aborted:
                raise DistAborted(
                    f"{self.label}: aborted while waiting (epoch {self.epoch})"
                )
            if poll is not None:
                poll()
            if heartbeat is not None:
                heartbeat()
            if time.monotonic() > deadline:
                raise BarrierTimeoutError(self._timeout_message(timeout))
            park(True, _PARK_SECONDS)

    def _timeout_message(self, timeout: float) -> str:
        pending = [
            p for p in range(len(self.slots)) if self.slots[p] < self.epoch
        ]
        lines = [
            f"{self.label} timed out after {timeout:.1f}s at epoch "
            f"{self.epoch}: {len(pending)} part{'y' if len(pending) == 1 else 'ies'} missing"
        ]
        for p in pending:
            if p < self.ctrl.nranks:
                lines.append("  missing " + self.ctrl.describe_rank(p))
            else:
                lines.append(f"  missing party {p} (coordinator)")
        return "\n".join(lines)
