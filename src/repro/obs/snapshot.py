"""Periodic registry snapshots for runs without a /metrics endpoint.

A server gets scraped; a batch run does not.  ``MetricsSnapshotSink``
piggybacks on the span stream: every ``interval`` step spans it
serializes the registry (``kind: "metrics"`` JSONL record) into the same
artifact the spans land in, so one file carries both the narrative
(spans) and the vitals (the registry's counters, gauges and histograms).
The record kind keeps :func:`repro.telemetry.sinks.read_jsonl` from
decoding it as a span; :func:`read_snapshots` reads the records back.

It is an ordinary sink: attach it to any tracer and forget about it.
The serve layer's JSONL ``--trace`` mode attaches one (``simcov-repro
run --trace`` attaches only the trace sink).  A final snapshot is
flushed on ``close()`` so short runs still record one.
"""

from __future__ import annotations

import json
import time

from repro.obs.registry import get_registry

__all__ = ["MetricsSnapshotSink", "read_snapshots"]


class MetricsSnapshotSink:
    """Write ``{"kind": "metrics", ...}`` JSONL records every N steps.

    Parameters
    ----------
    write:
        A callable taking one dict (e.g. ``JsonlSink.write_record``), or
        a path to append JSONL records to.
    interval:
        Snapshot every this-many step-end spans (cat ``"step"``).
    registry:
        Defaults to the process-global registry at snapshot time.
    """

    def __init__(self, write, interval: int = 50, registry=None):
        if callable(write):
            self._write = write
            self._fh = None
        else:
            self._fh = open(write, "a", buffering=1)
            self._write = lambda rec: self._fh.write(json.dumps(rec) + "\n")
        self.interval = max(1, int(interval))
        self._registry = registry
        self._steps_seen = 0
        self.snapshots_written = 0

    @property
    def registry(self):
        return self._registry if self._registry is not None else get_registry()

    def on_event(self, event) -> None:
        if event.cat != "step":
            return
        self._steps_seen += 1
        if self._steps_seen % self.interval == 0:
            self._snapshot(step=event.step)

    def _snapshot(self, step: int | None = None) -> None:
        rec = {
            "kind": "metrics",
            "ts": time.time(),
            "step": step,
            "metrics": self.registry.snapshot(),
        }
        self._write(rec)
        self.snapshots_written += 1

    def close(self) -> None:
        # Final flush: runs shorter than one interval still get vitals.
        if self._steps_seen % self.interval != 0 or self._steps_seen == 0:
            self._snapshot()
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def read_snapshots(path) -> list[dict]:
    """All ``kind: "metrics"`` records from a JSONL trace, in order."""
    out = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            if rec.get("kind") == "metrics":
                out.append(rec)
    return out
