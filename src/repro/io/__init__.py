"""Simulation output: per-step statistics logging (§3.3).

SIMCoV 'collects a variety of statistics during execution ... each time
step to enable time series analysis', with a single process logging the
reduced totals to a file on disk.  This package provides that sink:
whole-series CSV save/load (a run's series is kept in memory and written
once) and implementation-independent checkpoints
(:mod:`repro.io.checkpoint`)."""

from repro.io.checkpoint import load_checkpoint, save_checkpoint
from repro.io.timeseries import load_timeseries, save_timeseries

__all__ = [
    "save_timeseries",
    "load_timeseries",
    "save_checkpoint",
    "load_checkpoint",
]
