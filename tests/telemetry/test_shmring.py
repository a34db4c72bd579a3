"""Shared-memory ring tests: codec round-trip, overflow accounting, and
the drain/reset protocol — exercised on plain numpy arrays (the ring
code is agnostic to whether the buffer lives in shared memory)."""

import numpy as np
import pytest

from repro.telemetry import (
    SPAN,
    RECORD_WIDTH,
    RingCodec,
    ShmRingSink,
    Tracer,
    drain_ring,
)
from repro.telemetry.events import Event

NAMES = (
    "phase:diffuse",
    "barrier:open_exchange",
    "barrier:step_end",
    "step:step",
)


def make_ring(capacity=8):
    data = np.zeros((capacity, RECORD_WIDTH))
    count = np.zeros(1, dtype=np.int64)
    dropped = np.zeros(1, dtype=np.int64)
    codec = RingCodec(NAMES)
    return data, count, dropped, codec


class TestCodecRoundTrip:
    @pytest.mark.parametrize(
        "event",
        [
            Event(SPAN, "diffuse", 12.5, dur=0.75, cat="phase", step=9),
            Event(SPAN, "open_exchange", 1.0, dur=0.01, cat="barrier",
                  step=2, attrs={"skipped": True}),
        ],
    )
    def test_event_survives_ring(self, event):
        data, count, dropped, codec = make_ring()
        ShmRingSink(data, count, dropped, codec).on_event(event)
        assert int(count[0]) == 1 and int(dropped[0]) == 0
        (decoded,) = drain_ring(data, count, codec, rank=3)
        assert decoded.kind == event.kind
        assert decoded.name == event.name and decoded.cat == event.cat
        assert decoded.ts == event.ts and decoded.step == event.step
        assert decoded.rank == 3  # the drain side stamps the rank
        assert decoded.dur == event.dur
        assert bool(decoded.attrs.get("skipped")) == bool(
            event.attrs.get("skipped")
        )

    def test_id_assignment_is_order(self):
        codec = RingCodec(NAMES)
        assert codec.name_id("phase", "diffuse") == 0
        assert codec.name_id("step", "step") == 3
        assert codec.name_id("phase", "nope") is None


class TestOverflowAndUnknownNames:
    def test_unknown_name_increments_dropped(self):
        data, count, dropped, codec = make_ring()
        sink = ShmRingSink(data, count, dropped, codec)
        sink.on_event(Event(SPAN, "not_in_table", 0.0, cat="phase"))
        assert int(count[0]) == 0 and int(dropped[0]) == 1

    def test_full_ring_drops_not_overwrites(self):
        data, count, dropped, codec = make_ring(capacity=2)
        sink = ShmRingSink(data, count, dropped, codec)
        for i in range(5):
            sink.on_event(Event(SPAN, "step", float(i), cat="step"))
        assert int(count[0]) == 2 and int(dropped[0]) == 3
        events = drain_ring(data, count, codec, rank=0)
        assert [e.ts for e in events] == [0.0, 1.0]


class TestDrain:
    def test_drain_resets_count_for_reuse(self):
        data, count, dropped, codec = make_ring()
        sink = ShmRingSink(data, count, dropped, codec)
        tracer = Tracer(rank=1, sinks=[sink])
        tracer.emit_span("step", 10.0, 0.5, cat="step", step=0)
        assert len(drain_ring(data, count, codec, rank=1)) == 1
        assert int(count[0]) == 0
        tracer.emit_span("step", 11.0, 0.5, cat="step", step=1)
        (ev,) = drain_ring(data, count, codec, rank=1)
        assert ev.ts == 11.0 and ev.step == 1

    def test_empty_drain(self):
        data, count, _, codec = make_ring()
        assert drain_ring(data, count, codec, rank=0) == []
