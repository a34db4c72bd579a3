"""The telemetry event model.

A trace is a stream of **spans**: one flat :class:`Event` record per
named interval ``[ts, ts + dur]`` (a step, a phase, a barrier wait, a
ring drain, a checkpoint).  Spans nest by time containment; the tracer
additionally stamps ``parent``/``depth`` attributes for spans opened
through its context-manager API, so nesting survives sinks that do not
reconstruct containment.  Counters and gauges are not trace events:
:class:`repro.obs.registry.MetricsRegistry` owns them.

Timestamps are ``time.perf_counter()`` seconds.  On Linux that clock is
``CLOCK_MONOTONIC``, which is system-wide, so events recorded by the
distributed runtime's worker *processes* share a timeline with the
coordinator's — the property the per-rank Chrome-trace lanes rely on.

``cat`` buckets events for sinks and the report tool: the engine uses
``"step"``/``"phase"``, the distributed runtime adds ``"barrier"`` and
``"telemetry"``, the fault-tolerance layer ``"resilience"``, the job
server ``"serving"``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: The ``kind`` of every event record (the JSONL discriminator that sets
#: events apart from the metadata header).
SPAN = "span"

#: Sentinel for "no step context" (events outside the step loop).
NO_STEP = -1


@dataclass(slots=True)
class Event:
    """One span (see module docstring)."""

    kind: str
    name: str
    #: ``perf_counter`` seconds at the span's start.
    ts: float
    #: Span duration in seconds.
    dur: float = 0.0
    cat: str = ""
    rank: int = 0
    step: int = NO_STEP
    attrs: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        """Plain-dict form (the JSONL wire format)."""
        out = {
            "kind": self.kind,
            "name": self.name,
            "ts": self.ts,
            "cat": self.cat,
            "rank": self.rank,
            "step": self.step,
            "dur": self.dur,
        }
        if self.attrs:
            out["attrs"] = self.attrs
        return out

    @classmethod
    def from_json(cls, data: dict) -> "Event":
        return cls(
            kind=data["kind"],
            name=data["name"],
            ts=float(data["ts"]),
            dur=float(data.get("dur", 0.0)),
            cat=data.get("cat", ""),
            rank=int(data.get("rank", 0)),
            step=int(data.get("step", NO_STEP)),
            attrs=dict(data.get("attrs", {})),
        )
