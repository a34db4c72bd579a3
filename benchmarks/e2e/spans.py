"""In-memory spans recorded from the benchmark's side of each layer seam.

Nothing under ``src/`` knows about this tracer: :meth:`SpanTracer.wrap`
replaces a public attribute (a ``repro.core.kernels`` function, a bound
``backend.execute``, ``engine.step`` ...) with a timing shim for one
traced repetition and :meth:`SpanTracer.uninstall` puts the original
back.  A seam that no longer resolves is listed in ``missing`` (the
caller reports the metrics derived from it as ``None``) — a refactor
under ``src/`` must not be able to crash the benchmark.

A span is ``[name, cat, start, end, parent]``; ``parent`` indexes the
span that was open when this one began.  A layer's *self time* is its
spans' duration minus the part their direct children cover.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter

_ABSENT = object()

NAME, CAT, START, END, PARENT = range(5)


class SpanTracer:
    """Span store plus the seam wrappers that feed it."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[list] = []
        #: Free-form counters recorded at the seams (voxels, skips ...).
        self.counts: dict[str, float] = defaultdict(float)
        #: Seams that did not resolve, as ``owner.attr`` strings.
        self.missing: list[str] = []
        self._open: list[int] = []
        self._undo: list[tuple] = []

    # -- recording -----------------------------------------------------------

    def begin(self, name: str, cat: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, cat, perf_counter(), None, parent])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int) -> float:
        span = self.spans[index]
        span[END] = perf_counter()
        self._open.pop()
        return span[END] - span[START]

    def timed(self, name: str, cat: str, fn, *args, **kwargs):
        """Run ``fn`` under a span; returns ``(result, seconds)``."""
        index = self.begin(name, cat)
        try:
            result = fn(*args, **kwargs)
        finally:
            seconds = self.end(index)
        return result, seconds

    # -- seams ---------------------------------------------------------------

    def wrap(self, owner, attr: str, cat: str, name=None, before=None,
             after=None) -> bool:
        """Time every call of ``owner.attr`` as a span.

        ``name`` is the span name, or a callable deriving it from the
        call's arguments (default: ``attr``).  ``before(name, args,
        kwargs)`` and ``after(name, result)`` record counts at the seam.
        Returns False (and notes the seam as missing) when ``owner`` is
        None or has no such callable.
        """
        fn = getattr(owner, attr, None) if owner is not None else None
        if not callable(fn):
            self.missing.append(f"{_owner_label(owner)}.{attr}")
            return False
        label = attr if name is None else name

        def shim(*args, **kwargs):
            span_name = label(*args, **kwargs) if callable(label) else label
            if before is not None:
                before(span_name, args, kwargs)
            index = self.begin(span_name, cat)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if after is not None:
                after(span_name, result)
            return result

        self._undo.append((owner, attr, vars(owner).get(attr, _ABSENT)))
        setattr(owner, attr, shim)
        return True

    def uninstall(self) -> None:
        """Restore every wrapped attribute (instance shims are deleted so
        the class attribute shows through again)."""
        for owner, attr, previous in reversed(self._undo):
            if previous is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, previous)
        self._undo.clear()

    # -- queries -------------------------------------------------------------

    def pick(self, cat: str, names=None, top_level_only: bool = False
             ) -> list[list]:
        """Closed ``cat`` spans (optionally only ``names``).

        ``top_level_only`` skips a span nested directly in another span
        of the same selection (``resolve_moves`` calling
        ``compute_moves``, both booked under one kernel name).
        """
        def selected(s):
            return s[CAT] == cat and (names is None or s[NAME] in names)

        return [
            s for s in self.spans
            if s[END] is not None and selected(s) and not (
                top_level_only and s[PARENT] >= 0
                and selected(self.spans[s[PARENT]])
            )
        ]

    def seconds(self, cat: str, names=None, top_level_only: bool = False
                ) -> float:
        """Summed duration of the picked spans (0.0 when there are none)."""
        return sum(
            s[END] - s[START] for s in self.pick(cat, names, top_level_only)
        )

    def self_seconds(self, cat: str) -> float:
        """Duration of ``cat`` spans minus their direct children's."""
        covered = sum(
            s[END] - s[START] for s in self.spans
            if s[END] is not None and s[PARENT] >= 0
            and self.spans[s[PARENT]][CAT] == cat
        )
        return self.seconds(cat) - covered

    def open_name(self) -> str | None:
        """Name of the innermost open span (None outside any span)."""
        return self.spans[self._open[-1]][NAME] if self._open else None

    # -- export --------------------------------------------------------------

    def chrome_events(self, pid: int = 0) -> list[dict]:
        """Chrome-trace complete events (``chrome://tracing``, Perfetto)."""
        return [
            {
                "name": s[NAME], "cat": s[CAT], "ph": "X", "pid": pid,
                "tid": 0, "ts": s[START] * 1e6,
                "dur": (s[END] - s[START]) * 1e6,
                "args": {
                    "workload": self.workload, "span": i, "parent": s[PARENT],
                },
            }
            for i, s in enumerate(self.spans) if s[END] is not None
        ]

    def write_chrome(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"traceEvents": self.chrome_events()}, fh)


def _owner_label(owner) -> str:
    if owner is None:
        return "<unresolved>"
    return getattr(owner, "__name__", type(owner).__name__)
