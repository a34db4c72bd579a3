"""Shared-memory-safe telemetry rings for multi-process tracing.

A worker process cannot stream variable-length JSON into shared memory,
so the distributed runtime gives each rank a fixed-capacity table of
numeric span records inside the control segment, plus a per-rank count
and an overflow drop counter.  Every record is five float64 columns::

    [name_id, step, ts, dur, skipped]

``name_id`` indexes a **name table** both sides derive from the same
inputs (phase names + the fixed barrier/step vocabulary), so the
coordinator can decode ids back into ``"cat:name"`` strings without any
cross-process string traffic.  The coordinator drains each rank's table
in the per-step quiescent window (after the step-end barrier, before the
next step-start release), resets the count, and forwards decoded
:class:`~repro.telemetry.events.Event` spans — stamped with the worker's
rank and original timestamps — into its own tracer's sinks.
"""

from __future__ import annotations

import numpy as np

from repro.telemetry.events import SPAN, Event

#: Record columns.
COL_NAME, COL_STEP, COL_TS, COL_DUR, COL_SKIPPED = range(5)
RECORD_WIDTH = 5


class RingCodec:
    """Name interning + row encode/decode shared by both ring sides.

    ``names`` is an ordered tuple of ``"cat:name"`` strings; its order IS
    the id assignment, so every process must build it from the same
    inputs.
    """

    def __init__(self, names: tuple[str, ...]):
        self.names = tuple(names)
        self.ids = {name: i for i, name in enumerate(self.names)}
        self._split = [
            tuple(n.split(":", 1)) if ":" in n else ("", n) for n in self.names
        ]

    def name_id(self, cat: str, name: str) -> int | None:
        return self.ids.get(f"{cat}:{name}")

    def decode_row(self, row, rank: int) -> Event | None:
        name_id = int(row[COL_NAME])
        if not 0 <= name_id < len(self.names):
            return None
        cat, name = self._split[name_id]
        ev = Event(
            SPAN, name, float(row[COL_TS]), dur=float(row[COL_DUR]),
            cat=cat, rank=rank, step=int(row[COL_STEP]),
        )
        if row[COL_SKIPPED]:
            ev.attrs["skipped"] = True
        return ev


class ShmRingSink:
    """Tracer sink writing fixed span records into one rank's ring views.

    ``data`` is the rank's ``(capacity, RECORD_WIDTH)`` float64 table,
    ``count`` and ``dropped`` are length-1 int64 views (the rank's slots of
    the shared per-rank vectors).  Events whose ``cat:name`` is not in the codec's
    table, or that arrive when the table is full, bump ``dropped`` — the
    drain side surfaces that so truncation is never silent.
    """

    def __init__(self, data: np.ndarray, count: np.ndarray,
                 dropped: np.ndarray, codec: RingCodec):
        self.data = data
        self.count = count
        self.dropped = dropped
        self.codec = codec
        self.capacity = int(data.shape[0])

    def on_event(self, event: Event) -> None:
        name_id = self.codec.name_id(event.cat, event.name)
        if name_id is None:
            self.dropped[0] += 1
            return
        idx = int(self.count[0])
        if idx >= self.capacity:
            self.dropped[0] += 1
            return
        row = self.data[idx]
        row[COL_NAME] = name_id
        row[COL_STEP] = event.step
        row[COL_TS] = event.ts
        row[COL_DUR] = event.dur
        row[COL_SKIPPED] = 1.0 if event.attrs.get("skipped") else 0.0
        # Publish the record before the count: a racing reader that sees
        # the new count sees a fully written row.
        self.count[0] = idx + 1

    def close(self) -> None:
        pass


def drain_ring(data: np.ndarray, count: np.ndarray, codec: RingCodec,
               rank: int) -> list[Event]:
    """Decode one rank's pending records and reset its count.

    Only call in a quiescent window (the owner parked at a barrier);
    the count reset races with nothing then.
    """
    n = min(int(count[0]), int(data.shape[0]))
    events = []
    for i in range(n):
        ev = codec.decode_row(data[i], rank)
        if ev is not None:
            events.append(ev)
    count[0] = 0
    return events


__all__ = [
    "RECORD_WIDTH",
    "RingCodec",
    "ShmRingSink",
    "drain_ring",
]
