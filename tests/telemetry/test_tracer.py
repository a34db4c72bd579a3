"""Tracer unit tests: span nesting/attributes, lifecycle, the null
tracer's short-circuit contract."""

import pytest

from repro.telemetry import (
    NULL_TRACER,
    SPAN,
    Event,
    NullTracer,
    RingBufferSink,
    Tracer,
)


class TestSpans:
    def test_nesting_stamps_parent_and_depth(self):
        ring = RingBufferSink()
        tracer = Tracer(sinks=[ring])
        with tracer.span("outer"):
            with tracer.span("middle"):
                with tracer.span("inner"):
                    pass
        # Spans close innermost-first.
        inner, middle, outer = ring.spans()
        assert [e.name for e in (inner, middle, outer)] == [
            "inner", "middle", "outer",
        ]
        assert outer.attrs["depth"] == 0 and "parent" not in outer.attrs
        assert middle.attrs == {"parent": "outer", "depth": 1}
        assert inner.attrs == {"parent": "middle", "depth": 2}

    def test_span_times_its_body(self):
        ring = RingBufferSink()
        tracer = Tracer(sinks=[ring])
        with tracer.span("work", cat="phase", step=3):
            pass
        (ev,) = ring.spans()
        assert ev.kind == SPAN
        assert ev.cat == "phase" and ev.step == 3
        assert ev.dur >= 0.0 and ev.ts > 0.0

    def test_emit_span_stamps_backend_and_rank(self):
        ring = RingBufferSink()
        tracer = Tracer(rank=5, backend="pgas", sinks=[ring])
        tracer.emit_span("diffuse", 10.0, 0.25, cat="phase", step=7,
                         skipped=False)
        (ev,) = ring.spans()
        assert ev.rank == 5
        assert ev.ts == 10.0 and ev.dur == 0.25
        assert ev.attrs["backend"] == "pgas"
        assert ev.attrs["skipped"] is False

    def test_emit_preserves_foreign_rank(self):
        """The dist merge path: forwarded events keep the worker's rank."""
        ring = RingBufferSink()
        tracer = Tracer(rank=-1, sinks=[ring])
        tracer.emit(Event(SPAN, "intents", 1.0, dur=0.1, rank=3))
        assert ring.spans()[0].rank == 3


class TestLifecycle:
    def test_close_flushes_sinks_once(self):
        class Closable:
            closed = 0

            def on_event(self, event):
                pass

            def close(self):
                self.closed += 1

        sink = Closable()
        tracer = Tracer(sinks=[sink])
        tracer.close()
        tracer.close()
        assert sink.closed == 1

    def test_add_sink_chains(self):
        ring = RingBufferSink()
        tracer = Tracer().add_sink(ring)
        tracer.emit_span("x", 0.0, 1.0)
        assert len(ring.events) == 1


class TestNullTracer:
    def test_is_falsy_and_enabled_false(self):
        assert not NULL_TRACER
        assert NULL_TRACER.enabled is False
        assert bool(Tracer()) is True and Tracer().enabled is True

    def test_all_emissions_are_noops(self):
        tracer = NullTracer()
        with tracer.span("s"):
            pass
        tracer.emit_span("s", 0.0, 1.0)
        tracer.emit(Event(SPAN, "s", 0.0))
        tracer.close()
        assert tracer.sinks == ()

    def test_add_sink_raises(self):
        with pytest.raises(RuntimeError):
            NULL_TRACER.add_sink(RingBufferSink())
