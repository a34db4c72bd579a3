"""Pluggable event sinks.

A sink is any object with ``on_event(event)`` and (optionally)
``close()``.  Shipped sinks:

- :class:`RingBufferSink` — bounded in-memory buffer (tests, ad-hoc
  inspection, the always-cheap default for live tracing);
- :class:`JsonlSink` — streams one JSON object per event, the archival
  format ``simcov-repro trace report`` reads back;
- :class:`ChromeTraceSink` — writes the Chrome trace-event JSON format
  (load in ``chrome://tracing`` or https://ui.perfetto.dev): spans
  become complete (``"X"``) events on a ``pid=rank`` lane, and metadata
  (``"M"``) events name each rank's lane;
- :class:`SseSink` — formats each event as a server-sent-events frame
  (:func:`sse_frame`) and fans the text to subscriber callables; the
  serving layer (:mod:`repro.serve`) bridges those callables into each
  job's event stream, so ``GET /jobs/{id}/events`` is just another sink
  on the same tracer every backend already feeds.
"""

from __future__ import annotations

import json
from collections import deque

from repro.telemetry.events import SPAN, Event


class RingBufferSink:
    """Keep the last ``capacity`` events in memory."""

    def __init__(self, capacity: int = 65536):
        self.events: deque[Event] = deque(maxlen=int(capacity))

    def on_event(self, event: Event) -> None:
        self.events.append(event)

    def close(self) -> None:
        pass

    # -- inspection ----------------------------------------------------------

    def spans(self, cat: str | None = None) -> list[Event]:
        return [e for e in self.events if cat is None or e.cat == cat]


class JsonlSink:
    """One JSON object per line, streamed as events arrive.

    Line-buffered: each event reaches the file as it happens, so a trace
    from a crashed or signalled process is still readable up to the last
    complete event (the serve CI job uploads these as artifacts).

    The first line is a ``{"kind": "meta", ...}`` run-metadata header
    (:func:`repro.obs.runmeta.run_metadata`) — host, cpu count, python,
    git SHA — so a report or a diff knows which environment produced the
    numbers; pass ``write_meta=False`` to suppress it, or ``meta=`` to
    ride extra keys along.  Readers dispatch on ``kind``.
    """

    def __init__(self, path, meta: dict | None = None, write_meta: bool = True):
        self.path = path
        self._fh = open(path, "w", buffering=1)
        if write_meta:
            from repro.obs.runmeta import run_metadata

            header = {"kind": "meta", **run_metadata(), **(meta or {})}
            self._fh.write(json.dumps(header) + "\n")

    def on_event(self, event: Event) -> None:
        self._fh.write(json.dumps(event.to_json()) + "\n")

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def read_jsonl(path) -> list[Event]:
    """Load a :class:`JsonlSink` file back into events.

    Only ``kind: "span"`` records decode; the rest (the metadata header,
    and the metrics snapshots and counter/gauge lines of traces written
    before traces held spans only) are skipped — use :func:`read_meta`
    for the header.
    """
    events = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                rec = json.loads(line)
                if rec.get("kind") == SPAN:
                    events.append(Event.from_json(rec))
    return events


def read_meta(path) -> dict | None:
    """The run-metadata header of a JSONL trace, or None (older traces,
    Chrome traces are handled by their own ``otherData`` field)."""
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            if rec.get("kind") == "meta":
                rec.pop("kind", None)
                return rec
            return None  # header is always first when present
    return None


class ChromeTraceSink:
    """Buffer events; write Chrome trace-event JSON on close.

    Each rank renders as one process lane (``pid = rank``), with spans on
    ``tid`` 0 — Perfetto then shows the distributed runtime as stacked
    per-rank timelines whose barrier-wait slices line up vertically.
    """

    def __init__(self, path, meta: dict | None = None):
        self.path = path
        self.meta = meta
        self._events: list[Event] = []
        self._closed = False

    def on_event(self, event: Event) -> None:
        self._events.append(event)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        from repro.obs.runmeta import run_metadata

        meta = {**run_metadata(), **(self.meta or {})}
        with open(self.path, "w") as fh:
            json.dump(self.render(self._events, meta=meta), fh)
        self._events = []

    @staticmethod
    def render(events: list[Event], meta: dict | None = None) -> dict:
        """The trace-event payload for an event list (pure; testable)."""
        base = min((e.ts for e in events), default=0.0)
        out = []
        ranks = sorted({e.rank for e in events})
        for rank in ranks:
            # Negative ranks are control-plane lanes (the dist runtime's
            # coordinator traces as rank -1).
            label = f"rank {rank}" if rank >= 0 else "coordinator"
            out.append(
                {
                    "ph": "M", "name": "process_name", "pid": rank, "tid": 0,
                    "args": {"name": label},
                }
            )
        for e in events:
            out.append(
                {
                    "ph": "X",
                    "name": e.name,
                    "cat": e.cat or "span",
                    "pid": e.rank,
                    "tid": 0,
                    "ts": (e.ts - base) * 1e6,
                    "dur": e.dur * 1e6,
                    "args": {"step": e.step, **e.attrs},
                }
            )
        payload = {"traceEvents": out, "displayTimeUnit": "ms"}
        if meta:
            # Chrome's trace format reserves otherData for free-form
            # run metadata; Perfetto shows it in the trace-info panel.
            payload["otherData"] = meta
        return payload


def sse_frame(event_name: str, data) -> str:
    """One server-sent-events frame: ``event:`` + one ``data:`` line.

    ``data`` may be a pre-serialized string or any JSON-dumpable object.
    JSON never contains raw newlines, so a single ``data:`` line is
    always a valid frame (the SSE spec would otherwise need one line per
    newline).
    """
    if not isinstance(data, str):
        data = json.dumps(data)
    return f"event: {event_name}\ndata: {data}\n\n"


class SseSink:
    """Fan telemetry events out as server-sent-events frames.

    Subscribers are plain callables receiving the formatted frame text —
    thread-agnostic on purpose: the simulation runs in a worker thread,
    and the serving layer's subscriber does the thread hop into its
    asyncio loop (``loop.call_soon_threadsafe``).  A bounded
    ``categories`` filter keeps job streams compact (per-phase spans at
    13+/step would swamp an event log that every SSE client replays);
    pass ``categories=None`` to forward everything.
    """

    #: Default forwarded categories: step spans plus the serving and
    #: resilience control-plane spans — the signal a client dashboard
    #: needs, without the per-phase firehose.
    DEFAULT_CATEGORIES = frozenset({"step", "serving", "resilience"})

    def __init__(self, subscriber=None, categories=DEFAULT_CATEGORIES):
        self._subscribers = []
        self.categories = None if categories is None else frozenset(categories)
        self.dropped = 0
        if subscriber is not None:
            self.subscribe(subscriber)

    def subscribe(self, callback):
        """Add a frame consumer; returns an unsubscribe callable."""
        self._subscribers.append(callback)

        def unsubscribe():
            try:
                self._subscribers.remove(callback)
            except ValueError:
                pass

        return unsubscribe

    def on_event(self, event: Event) -> None:
        if self.categories is not None and event.cat not in self.categories:
            self.dropped += 1
            return
        frame = sse_frame("telemetry", event.to_json())
        for callback in tuple(self._subscribers):
            callback(frame)

    def close(self) -> None:
        self._subscribers = []
