"""Sink tests: ring-buffer bounds, JSONL round-trip, Chrome-trace schema
validation, and the format sniffing of ``load_events``."""

import json

import pytest

from repro.telemetry import (
    SPAN,
    ChromeTraceSink,
    Event,
    JsonlSink,
    RingBufferSink,
    Tracer,
    load_events,
    read_jsonl,
)


class TestRingBufferSink:
    def test_bounded_capacity(self):
        ring = RingBufferSink(capacity=3)
        for i in range(5):
            ring.on_event(Event(SPAN, "s", float(i)))
        assert [e.ts for e in ring.spans()] == [2.0, 3.0, 4.0]

    def test_spans_filters_by_cat(self):
        ring = RingBufferSink()
        ring.on_event(Event(SPAN, "a", 0.0, cat="phase"))
        ring.on_event(Event(SPAN, "b", 0.0, cat="barrier"))
        assert [e.name for e in ring.spans()] == ["a", "b"]
        assert [e.name for e in ring.spans("barrier")] == ["b"]


class TestJsonlRoundTrip:
    def test_events_survive_write_and_read(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(rank=2, backend="dist", sinks=[JsonlSink(path)])
        tracer.emit_span("diffuse", 1.5, 0.25, cat="phase", step=4,
                         skipped=False)
        tracer.emit_span("drain", 1.75, 0.5, cat="telemetry", step=4,
                         imbalance=0.25, dropped=[0, 3])
        tracer.close()

        span, drain = read_jsonl(path)
        assert span.kind == SPAN and span.name == "diffuse"
        assert span.ts == 1.5 and span.dur == 0.25
        assert span.rank == 2 and span.step == 4
        assert span.attrs["backend"] == "dist"
        assert drain.attrs["imbalance"] == 0.25
        assert drain.attrs["dropped"] == [0, 3]
        # The JSONL form is one valid JSON object per line: the
        # run-metadata header, then the two spans.
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 3
        assert all(isinstance(json.loads(ln), dict) for ln in lines)
        header = json.loads(lines[0])
        assert header["kind"] == "meta"
        assert header["host"] and header["cpu_count"] >= 1


class TestChromeTraceSchema:
    EVENTS = [
        Event(SPAN, "intents", 10.0, dur=0.5, cat="phase", rank=0, step=1),
        Event(SPAN, "open_exchange", 10.2, dur=0.1, cat="barrier", rank=1,
              step=1),
        Event(SPAN, "step_end", 10.6, dur=0.05, cat="barrier", rank=-1,
              step=1),
    ]

    def test_render_schema(self):
        payload = ChromeTraceSink.render(self.EVENTS)
        assert set(payload) == {"traceEvents", "displayTimeUnit"}
        recs = payload["traceEvents"]
        # One process_name metadata record per rank, labeled.
        meta = {r["pid"]: r for r in recs if r["ph"] == "M"}
        assert set(meta) == {-1, 0, 1}
        assert meta[0]["args"]["name"] == "rank 0"
        assert meta[-1]["args"]["name"] == "coordinator"
        # Spans are complete events with microsecond ts/dur relative to
        # the earliest timestamp.
        spans = [r for r in recs if r["ph"] == "X"]
        assert [s["name"] for s in spans] == [
            "intents", "open_exchange", "step_end",
        ]
        first = spans[0]
        assert first["ts"] == 0.0 and first["dur"] == pytest.approx(5e5)
        assert first["pid"] == 0 and first["args"]["step"] == 1
        barrier = spans[1]
        assert barrier["cat"] == "barrier"
        assert barrier["ts"] == pytest.approx(0.2e6)
        # Nothing but lane names and spans.
        assert {r["ph"] for r in recs} == {"M", "X"}

    def test_sink_writes_valid_json(self, tmp_path):
        path = tmp_path / "trace.json"
        sink = ChromeTraceSink(path)
        for ev in self.EVENTS:
            sink.on_event(ev)
        sink.close()
        sink.close()  # idempotent
        payload = json.loads(path.read_text())
        assert payload["displayTimeUnit"] == "ms"
        assert len(payload["traceEvents"]) == len(self.EVENTS) + 3


class TestLoadEventsSniffing:
    def test_jsonl_detected_despite_brace_prefix(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tracer = Tracer(sinks=[JsonlSink(path)])
        tracer.emit_span("a", 0.0, 1.0, cat="phase", step=0)
        tracer.emit_span("b", 1.0, 1.0, cat="phase", step=1)
        tracer.close()
        events = load_events(path)
        assert [e.name for e in events] == ["a", "b"]

    def test_chrome_detected_and_decoded(self, tmp_path):
        path = tmp_path / "t.json"
        sink = ChromeTraceSink(path)
        sink.on_event(Event(SPAN, "diffuse", 2.0, dur=0.5, cat="phase",
                            rank=1, step=3))
        sink.close()
        (ev,) = load_events(path)
        assert ev.kind == SPAN and ev.name == "diffuse"
        assert ev.cat == "phase" and ev.rank == 1 and ev.step == 3
        assert ev.dur == pytest.approx(0.5)
