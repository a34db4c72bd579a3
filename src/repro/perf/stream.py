"""Streams and events: modeling copy/compute overlap.

SIMCoV-GPU's counted work — launches, active-tile voxels, atomics, halo
copies — is a pure function of one single-block trace
(:mod:`repro.perf.work`).  What this module adds is the one thing a trace
does not give: when copies and kernels may *overlap*.

Related work (§5) highlights latency hiding for multi-GPU ABMs (Aaby et
al. [3]); SIMCoV-GPU's fixed kernel/copy schedule (Fig 2) is fully
serialized, and §6.1 floats asynchronous updates as future work.  This
module provides the CUDA-stream abstraction needed to *model* such
overlap: per-device streams whose operations serialize within a stream
but overlap across streams, subject to engine contention (one compute
engine, one copy engine — the A100's practical shape for this workload)
and event dependencies.

Makespans are computed by a deterministic discrete-event schedule: each
operation starts when its stream predecessor finished, its engine is
free, and all awaited events have fired.  The latency-hiding ablation
(benchmarks/test_ablation_latency_hiding.py) uses this to bound what an
overlapped SIMCoV-GPU step schedule could save.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field


class Engine(enum.Enum):
    """Hardware engines; operations on different engines may overlap."""

    COMPUTE = "compute"
    COPY = "copy"
    #: Host-side work (e.g. UPC++ progress): its own resource.
    HOST = "host"


@dataclass(frozen=True)
class Event:
    """A marker recorded on a stream; others can wait on it."""

    event_id: int


@dataclass
class _Op:
    stream_id: int
    engine: Engine
    seconds: float
    waits: tuple[Event, ...]
    records: Event | None
    label: str = ""
    #: Filled by scheduling.
    start: float = field(default=0.0)
    end: float = field(default=0.0)


class StreamSchedule:
    """A device's stream program + its modeled timeline.

    Usage::

        sched = StreamSchedule()
        s0, s1 = sched.stream(), sched.stream()
        interior = s0.compute(0.010, label="interior kernels")
        halo = s1.copy(0.004, label="halo exchange")
        s0.wait(halo)
        s0.compute(0.002, label="boundary kernels")
        makespan = sched.makespan()
    """

    def __init__(self):
        self._ops: list[_Op] = []
        self._streams: list["Stream"] = []
        self._event_counter = itertools.count()
        self._scheduled = False

    def stream(self) -> "Stream":
        s = Stream(self, len(self._streams))
        self._streams.append(s)
        return s

    def _enqueue(self, op: _Op) -> None:
        self._scheduled = False
        self._ops.append(op)

    def _new_event(self) -> Event:
        return Event(next(self._event_counter))

    # -- scheduling -----------------------------------------------------------

    def _schedule(self) -> None:
        if self._scheduled:
            return
        stream_avail: dict[int, float] = {}
        engine_avail: dict[Engine, float] = {}
        event_time: dict[int, float] = {}
        # Ops are scheduled in enqueue order (hardware queues are FIFO per
        # engine); event waits may delay a start beyond both availabilities.
        for op in self._ops:
            start = max(
                stream_avail.get(op.stream_id, 0.0),
                engine_avail.get(op.engine, 0.0),
            )
            for ev in op.waits:
                if ev.event_id not in event_time:
                    raise ValueError(
                        f"operation {op.label!r} waits on event "
                        f"{ev.event_id} recorded later (or never) — "
                        "deadlock in the stream program"
                    )
                start = max(start, event_time[ev.event_id])
            op.start = start
            op.end = start + op.seconds
            stream_avail[op.stream_id] = op.end
            engine_avail[op.engine] = op.end
            if op.records is not None:
                event_time[op.records.event_id] = op.end
        self._scheduled = True

    def makespan(self) -> float:
        """Completion time of the whole program."""
        if not self._ops:
            return 0.0
        self._schedule()
        return max(op.end for op in self._ops)

    def timeline(self) -> list[tuple[str, str, float, float]]:
        """(label, engine, start, end) per op, schedule order."""
        self._schedule()
        return [
            (op.label, op.engine.value, op.start, op.end) for op in self._ops
        ]

    def busy_seconds(self, engine: Engine) -> float:
        self._schedule()
        return sum(op.seconds for op in self._ops if op.engine is engine)


class Stream:
    """One in-order operation queue."""

    def __init__(self, schedule: StreamSchedule, stream_id: int):
        self._schedule = schedule
        self.stream_id = stream_id
        self._pending_waits: list[Event] = []

    def _push(self, engine: Engine, seconds: float, label: str) -> Event:
        if seconds < 0:
            raise ValueError(f"operation duration must be >= 0: {seconds}")
        ev = self._schedule._new_event()
        self._schedule._enqueue(
            _Op(
                self.stream_id, engine, float(seconds),
                tuple(self._pending_waits), ev, label,
            )
        )
        self._pending_waits = []
        return ev

    def compute(self, seconds: float, label: str = "compute") -> Event:
        """Enqueue a kernel; returns an event fired at its completion."""
        return self._push(Engine.COMPUTE, seconds, label)

    def copy(self, seconds: float, label: str = "copy") -> Event:
        """Enqueue a D2D/H2D copy."""
        return self._push(Engine.COPY, seconds, label)

    def host(self, seconds: float, label: str = "host") -> Event:
        """Enqueue host-side work (progress, coordination)."""
        return self._push(Engine.HOST, seconds, label)

    def wait(self, event: Event) -> None:
        """The next enqueued operation also waits for ``event``."""
        self._pending_waits.append(event)
