"""The always-on metrics registry.

Spans (:mod:`repro.telemetry`) answer "what happened in this run, in
order"; metrics answer "how is the system doing right now, cheaply,
forever".  A :class:`MetricsRegistry` holds three instrument kinds:

- :class:`Counter` — monotonically increasing totals (steps executed,
  cache hits, barrier-wait seconds);
- :class:`Gauge` — last-write-wins samples (queue depth, active voxels,
  imbalance index);
- :class:`Histogram` — fixed-bucket distributions with **exact**
  ``count``/``sum`` (phase seconds, submit-to-first-event latency).
  Bucket bounds are inclusive uppers, Prometheus ``le`` semantics, plus
  an implicit ``+Inf`` overflow bucket.

Cost model (the reason this can be on by default, unlike the tracer):
resolving an instrument is one dict lookup on ``(name, labels)``; hot
paths resolve once at construction and then call bound methods —
``Counter.inc`` is a locked float add, ``Histogram.observe`` a locked
bisect over ~a dozen bounds.  The step loop calls none: the engine
families are read from the engines' phase tables at exposure (the CI
``obs`` job gates the end-to-end overhead at 3%).  Metrics never touch
simulation state or RNG, so golden traces are bitwise identical.

Label cardinality is capped per family (default 64 label sets): the
first overflowing label set folds into a shared ``{"overflow": "true"}``
series and bumps the registry's ``dropped_series`` counter, so a
label-from-user-input mistake degrades to one coarse series instead of
an unbounded scrape payload.

A process-global default registry backs the zero-config path
(:func:`get_registry`); tests and the overhead smoke swap it with
:func:`set_registry`.  A registry constructed with ``enabled=False``
(or ``REPRO_METRICS=off`` in the environment for the default one) hands
out shared no-op instruments, so instrumented code needs no branches.
"""

from __future__ import annotations

import os
import threading
import weakref
from bisect import bisect_left

__all__ = [
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_COUNTER",
    "NULL_GAUGE",
    "NULL_HISTOGRAM",
    "get_registry",
    "set_registry",
]

#: Default histogram bounds (seconds): SLO-grade resolution from 100µs
#: phase kernels up to 10s queue waits.
DEFAULT_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Label-set key of the shared per-family overflow series.
OVERFLOW_KEY = (("overflow", "true"),)


class Counter:
    """A monotonically increasing total.

    ``inc`` is locked: ``+=`` on a float attribute is a read-modify-write
    that can lose updates under free-threading worker pools (the serve
    layer's executor), and a lost cache-hit count is a lie on a dashboard.
    """

    __slots__ = ("value", "_lock")
    kind = "counter"

    def __init__(self):
        self.value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount


class Gauge:
    """A last-write-wins sample.  ``set`` is a single attribute store
    (atomic under the GIL), so it takes no lock; ``inc`` exists for the
    rare delta-style gauge and locks like a counter."""

    __slots__ = ("value", "_lock")
    kind = "gauge"

    def __init__(self):
        self.value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount


class Histogram:
    """Fixed-bucket distribution with exact count and sum.

    ``bounds`` are strictly increasing inclusive upper bounds
    (Prometheus ``le``); a value lands in the first bucket whose bound is
    ``>= value`` — a value exactly on a bound lands *in* that bound's
    bucket — and anything beyond the last bound lands in the implicit
    ``+Inf`` bucket.  ``counts`` is per-bucket (not cumulative); the
    Prometheus renderer accumulates.
    """

    __slots__ = ("bounds", "counts", "sum", "count", "_lock")
    kind = "histogram"

    def __init__(self, bounds=DEFAULT_BUCKETS):
        bounds = tuple(float(b) for b in bounds)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(f"bucket bounds must strictly increase: {bounds}")
        if bounds[-1] == float("inf"):
            bounds = bounds[:-1]  # +Inf is implicit
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # last slot = +Inf
        self.sum = 0.0
        self.count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self.counts[bisect_left(self.bounds, value)] += 1
            self.sum += value
            self.count += 1

    def cumulative(self) -> list[tuple[float, int]]:
        """``[(le, cumulative_count), ...]`` ending with ``(+Inf, count)``."""
        out, running = [], 0
        for bound, n in zip((*self.bounds, float("inf")), self.counts):
            running += n
            out.append((bound, running))
        return out


class _NullInstrument:
    """Shared no-op stand-in for every instrument kind: instrumented code
    holds it unconditionally and pays one empty method call."""

    __slots__ = ()
    kind = "null"
    value = 0.0
    sum = 0.0
    count = 0

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


NULL_COUNTER = NULL_GAUGE = NULL_HISTOGRAM = _NullInstrument()


class _Family:
    """One metric name: kind, help text, and its labeled series."""

    __slots__ = ("name", "kind", "help", "bounds", "series")

    def __init__(self, name, kind, help_text, bounds=None):
        self.name = name
        self.kind = kind
        self.help = help_text
        self.bounds = bounds
        self.series: dict[tuple, object] = {}


class MetricsRegistry:
    """Instrument factory + exposition surface.

    Parameters
    ----------
    enabled:
        When False every getter returns the shared no-op instrument and
        the registry stays empty (the overhead-smoke baseline).
    max_label_sets:
        Per-family cardinality cap; overflowing label sets share one
        ``{"overflow": "true"}`` series (see module docstring).
    """

    def __init__(self, enabled: bool = True, max_label_sets: int = 64):
        self.enabled = bool(enabled)
        self.max_label_sets = int(max_label_sets)
        #: Label sets refused by the cardinality cap (folded into the
        #: overflow series), rendered as
        #: ``simcov_obs_dropped_series_total``.
        self.dropped_series = 0
        self._families: dict[str, _Family] = {}
        self._lock = threading.Lock()
        #: Live engines' phase tables, the keys of collected ones, their sum.
        self._tables: dict[int, object] = {}
        self._retiring: list[int] = []
        self._retired = None

    # -- instrument getters (the one-dict-lookup hot path) ---------------------

    def counter(self, name: str, help: str = "", **labels) -> Counter:
        return self._get(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "", **labels) -> Gauge:
        return self._get(Gauge, name, help, labels)

    def histogram(
        self, name: str, help: str = "", buckets=DEFAULT_BUCKETS, **labels
    ) -> Histogram:
        return self._get(Histogram, name, help, labels, bounds=buckets)

    def _get(self, cls, name, help_text, labels, bounds=None):
        if not self.enabled:
            return NULL_COUNTER
        key = tuple(sorted((k, str(v)) for k, v in labels.items()))
        fam = self._families.get(name)
        if fam is not None and fam.kind == cls.kind:
            inst = fam.series.get(key)
            if inst is not None:
                return inst
        with self._lock:
            fam = self._families.get(name)
            if fam is None:
                fam = _Family(name, cls.kind, help_text, bounds)
                self._families[name] = fam
            elif fam.kind != cls.kind:
                raise ValueError(
                    f"metric {name!r} already registered as {fam.kind}, "
                    f"requested {cls.kind}"
                )
            inst = fam.series.get(key)
            if inst is None:
                if (
                    key != OVERFLOW_KEY
                    and len(fam.series) >= self.max_label_sets
                ):
                    # Cardinality cap: fold into the shared overflow
                    # series instead of growing without bound.
                    self.dropped_series += 1
                    key = OVERFLOW_KEY
                    inst = fam.series.get(key)
                    if inst is not None:
                        return inst
                inst = (
                    cls(fam.bounds or DEFAULT_BUCKETS)
                    if cls.kind == "histogram"
                    else cls()
                )
                fam.series[key] = inst
            return inst

    # -- the engine families ---------------------------------------------------

    def track_phases(self, owner, table) -> None:
        """Expose ``table`` (a :class:`~repro.engine.metrics.PhaseMetrics`,
        whose one writer takes no lock) as the engine families while
        ``owner`` lives, then in the retired total, so counters stay
        monotonic and a dead engine costs no memory."""
        if not self.enabled:
            return
        with self._lock:
            self._retire()
            if self._retired is None:
                self._retired = type(table)()
            self._tables[id(table)] = table
        # Lock-free: it may run in a collection that interrupted a holder.
        weakref.finalize(owner, self._retiring.append, id(table))

    def _retire(self) -> None:
        while self._retiring:  # under _lock
            table = self._tables.pop(self._retiring.pop(), None)
            if table is not None:
                self._retired.merge(table)

    def _phase_families(self) -> dict[str, _Family]:
        """The engine families, summed over the live and retired tables."""
        with self._lock:
            self._retire()
            if self._retired is None:
                return {}
            total = type(self._retired)().merge(self._retired)
            for table in self._tables.values():
                total.merge(table)
        out = MetricsRegistry()
        for name, seconds, _, skipped, buckets in total.rows():
            hist = out.histogram("simcov_phase_seconds",
                                 "Wall seconds per engine phase", phase=name)
            hist.counts, hist.count, hist.sum = buckets, sum(buckets), seconds
            out.counter(
                "simcov_phase_skips_total",
                "Phase executions skipped by the activity gate", phase=name,
            ).value = float(skipped)
        hist = out.histogram("simcov_step_seconds", "Wall seconds per engine step")
        hist.counts, hist.count = total.step_buckets, total.steps
        hist.sum = total.step_seconds
        steps = out.counter("simcov_steps_total", "Engine steps executed")
        steps.value = float(total.steps)
        return out._families

    # -- exposition ------------------------------------------------------------

    def families(self) -> dict[str, _Family]:
        """Every family, sorted; the engine families read now."""
        fams = {**self._families, **self._phase_families()}
        return {name: fams[name] for name in sorted(fams)}

    def snapshot(self) -> dict:
        """JSON-ready dump of every series (the JSONL snapshot format)."""
        out = {}
        for name, fam in self.families().items():
            rows = []
            for key in sorted(fam.series):
                inst = fam.series[key]
                row = {"labels": dict(key)}
                if fam.kind == "histogram":
                    row["count"] = inst.count
                    row["sum"] = inst.sum
                    row["buckets"] = [
                        ["+Inf" if le == float("inf") else le, n]
                        for le, n in inst.cumulative()
                    ]
                else:
                    row["value"] = inst.value
                rows.append(row)
            out[name] = {"kind": fam.kind, "help": fam.help, "series": rows}
        if self.dropped_series:
            out["simcov_obs_dropped_series_total"] = {
                "kind": "counter",
                "help": "Label sets refused by the cardinality cap",
                "series": [{"labels": {}, "value": float(self.dropped_series)}],
            }
        return out

    def render_prometheus(self) -> str:
        from repro.obs.prometheus import render

        return render(self)

    def reset(self) -> None:
        """Drop every family (tests only — production metrics are
        cumulative by design)."""
        with self._lock:
            self._families = {}
            self.dropped_series = 0
            self._tables, self._retiring, self._retired = {}, [], None


#: The process-global default registry.  ``REPRO_METRICS=off`` disables
#: it at import (the overhead smoke's baseline run).
_default_registry = MetricsRegistry(
    enabled=os.environ.get("REPRO_METRICS", "").lower()
    not in ("off", "0", "false")
)


def get_registry() -> MetricsRegistry:
    """The process-global registry instrumented layers default to."""
    return _default_registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the global registry; returns the previous one (tests swap a
    fresh registry in and restore the old one after)."""
    global _default_registry
    previous = _default_registry
    _default_registry = registry
    return previous
