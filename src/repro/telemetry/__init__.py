"""repro.telemetry — zero-dependency structured tracing.

A :class:`~repro.telemetry.tracer.Tracer` produces nested spans
(step → phase → sub-op) with monotonic timestamps and rank/backend
attributes, and fans them out to pluggable sinks: an in-memory ring
buffer, a JSONL event log, and a Chrome-trace exporter whose per-rank
lanes render the distributed runtime's barrier structure in Perfetto.
A trace holds spans only; counters and gauges (active voxels, strip
pulls, queue depth, ...) live in :mod:`repro.obs`'s registry.

Telemetry is off by default: every instrumented layer holds the no-op
:data:`~repro.telemetry.tracer.NULL_TRACER` until a caller installs a
real tracer (``simcov-repro run --trace``), so the untraced hot path
pays a single branch.
"""

from repro.telemetry.events import NO_STEP, SPAN, Event
from repro.telemetry.report import format_report, load_events, summarize
from repro.telemetry.shmring import RECORD_WIDTH, RingCodec, ShmRingSink, drain_ring
from repro.telemetry.sinks import (
    ChromeTraceSink,
    JsonlSink,
    RingBufferSink,
    SseSink,
    read_jsonl,
    sse_frame,
)
from repro.telemetry.tracer import NULL_TRACER, NullTracer, Tracer

__all__ = [
    "NO_STEP",
    "SPAN",
    "Event",
    "ChromeTraceSink",
    "JsonlSink",
    "NULL_TRACER",
    "NullTracer",
    "RECORD_WIDTH",
    "RingBufferSink",
    "RingCodec",
    "ShmRingSink",
    "SseSink",
    "Tracer",
    "drain_ring",
    "format_report",
    "load_events",
    "read_jsonl",
    "sse_frame",
    "summarize",
]
