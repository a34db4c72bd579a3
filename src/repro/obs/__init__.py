"""`repro.obs` — always-on metrics and health.

The production counterpart to :mod:`repro.telemetry`'s off-by-default
span tracing: a low-overhead :class:`MetricsRegistry` (counters, gauges,
fixed-bucket histograms) wired through the engine, dist, ensemble and
serve layers; Prometheus text exposition for ``GET /metrics``; periodic
JSONL snapshots for batch runs; a rolling per-rank
:class:`ImbalanceMonitor`; and run-metadata stamps.
"""

from repro.obs.imbalance import ImbalanceMonitor, imbalance_index
from repro.obs.prometheus import render as render_prometheus
from repro.obs.registry import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    set_registry,
)
from repro.obs.runmeta import compatible, format_meta, run_metadata
from repro.obs.snapshot import MetricsSnapshotSink, read_snapshots

__all__ = [
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "ImbalanceMonitor",
    "MetricsRegistry",
    "MetricsSnapshotSink",
    "compatible",
    "format_meta",
    "get_registry",
    "imbalance_index",
    "read_snapshots",
    "render_prometheus",
    "run_metadata",
    "set_registry",
]
