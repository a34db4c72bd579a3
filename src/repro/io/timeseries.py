"""Time-series persistence for :class:`~repro.core.stats.StepStats`."""

from __future__ import annotations

import csv
import os
from dataclasses import fields as dc_fields

from repro.core.stats import StepStats, TimeSeries

#: Column order: the StepStats fields.
COLUMNS = tuple(f.name for f in dc_fields(StepStats))
#: Integer-typed StepStats fields (everything else parses as float).
_INT_FIELDS = frozenset(
    f.name for f in dc_fields(StepStats) if f.type in (int, "int")
)


def save_timeseries(path: str, series: TimeSeries) -> None:
    """Write a whole series as CSV (one row per step)."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(COLUMNS))
        writer.writeheader()
        for row in series.to_rows():
            writer.writerow(row)


def load_timeseries(path: str) -> TimeSeries:
    """Read a CSV written by :func:`save_timeseries`."""
    series = TimeSeries()
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            kwargs = {
                name: (int(row[name]) if name in _INT_FIELDS
                       else float(row[name]))
                for name in COLUMNS
            }
            series.append(StepStats(**kwargs))
    return series
