"""The tracer: the one object instrumented code talks to.

A :class:`Tracer` fans spans out to its sinks; a :class:`NullTracer`
(module singleton :data:`NULL_TRACER`) is the off-by-default stand-in
whose every method is a no-op and whose truthiness is ``False``, so hot
paths can guard attribute construction with ``if tracer:`` and pay one
branch when telemetry is off.

Two ways to record a span:

- :meth:`Tracer.span` — a context manager that times its body and tracks
  the nesting stack (``parent``/``depth`` attributes), for call sites
  that are not already timed;
- :meth:`Tracer.emit_span` — for call sites that already hold
  ``(start, duration)`` (the StepEngine's phase loop, the dist worker),
  so tracing adds no second pair of clock reads.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter

from repro.telemetry.events import NO_STEP, SPAN, Event


class Tracer:
    """Fans events out to sinks; owns the span-nesting stack.

    Parameters
    ----------
    rank:
        Default rank stamped on emitted events (workers pass theirs).
    backend:
        Optional backend label merged into every span's attrs.
    sinks:
        Initial sink list; extend with :meth:`add_sink`.
    """

    enabled = True

    def __init__(self, rank: int = 0, backend: str = "", sinks=()):
        self.rank = int(rank)
        self.backend = backend
        self._sinks = list(sinks)
        self._stack: list[str] = []

    def __bool__(self) -> bool:
        return True

    def add_sink(self, sink) -> "Tracer":
        self._sinks.append(sink)
        return self

    @property
    def sinks(self) -> tuple:
        return tuple(self._sinks)

    # -- emission ------------------------------------------------------------

    def emit(self, event: Event) -> None:
        """Forward a pre-built event untouched (the dist merge path —
        the event keeps the originating worker's rank/timestamps)."""
        for sink in self._sinks:
            sink.on_event(event)

    def emit_span(
        self,
        name: str,
        start: float,
        duration: float,
        cat: str = "phase",
        step: int = NO_STEP,
        **attrs,
    ) -> None:
        """Record an already-timed interval."""
        if self.backend:
            attrs.setdefault("backend", self.backend)
        self.emit(
            Event(
                SPAN, name, start, dur=duration, cat=cat,
                rank=self.rank, step=step, attrs=attrs,
            )
        )

    @contextmanager
    def span(self, name: str, cat: str = "span", step: int = NO_STEP, **attrs):
        """Time the body as a span; nesting is tracked on a stack."""
        if self._stack:
            attrs.setdefault("parent", self._stack[-1])
        attrs.setdefault("depth", len(self._stack))
        self._stack.append(name)
        start = perf_counter()
        try:
            yield self
        finally:
            duration = perf_counter() - start
            self._stack.pop()
            self.emit_span(name, start, duration, cat=cat, step=step, **attrs)

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Flush and close every sink (idempotent)."""
        sinks, self._sinks = self._sinks, []
        for sink in sinks:
            close = getattr(sink, "close", None)
            if close is not None:
                close()


class _NullSpan:
    """Reusable no-op context manager."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The no-op tracer: every method short-circuits, ``bool()`` is False.

    Instrumented code holds a tracer unconditionally; with this one
    installed the only cost on the hot path is the ``if tracer:`` guard
    (or an attribute call that immediately returns).
    """

    enabled = False

    def __bool__(self) -> bool:
        return False

    def add_sink(self, sink) -> "NullTracer":
        raise RuntimeError("cannot attach sinks to the null tracer")

    @property
    def sinks(self) -> tuple:
        return ()

    def emit(self, event) -> None:
        pass

    def emit_span(self, name, start, duration, cat="phase", step=NO_STEP,
                  **attrs) -> None:
        pass

    def span(self, name, cat="span", step=NO_STEP, **attrs):
        return _NULL_SPAN

    def close(self) -> None:
        pass


#: The shared off switch — safe to share because it holds no state.
NULL_TRACER = NullTracer()
