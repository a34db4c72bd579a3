"""Phase-pipeline execution engine.

The per-step schedule of the simulation is an ordered tuple of named
:class:`Phase` entries.  A :class:`StepEngine` runs an
:class:`ExecutionBackend`'s schedule, each name as the backend's
``phase_<name>`` method, timing every phase: the single-block backend
(one phase-body implementation, run solo as :class:`SequentialBackend`
or batched as :class:`EnsembleBackend`) and the multi-process
``repro.dist`` runtime.  The drivers are thin shims over this machinery
(see :mod:`repro.engine.driver`).
"""

from repro.engine.activity import ActivityGate
from repro.engine.backend import ExecutionBackend
from repro.engine.driver import EngineDriver
from repro.engine.engine import StepContext, StepEngine
from repro.engine.ensemble import (
    EnsembleBackend,
    EnsembleMemberView,
    EnsembleSimCov,
    expand_sweep,
)
from repro.engine.metrics import PhaseMetrics
from repro.engine.phases import Phase
from repro.engine.sequential import SequentialBackend, SingleBlockBackend

__all__ = [
    "ActivityGate",
    "EngineDriver",
    "EnsembleBackend",
    "EnsembleMemberView",
    "EnsembleSimCov",
    "ExecutionBackend",
    "Phase",
    "PhaseMetrics",
    "SequentialBackend",
    "SingleBlockBackend",
    "StepContext",
    "StepEngine",
    "expand_sweep",
]
