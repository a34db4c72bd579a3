"""Phase-pipeline execution engine.

The per-step schedule of the simulation is data: an ordered tuple of
:class:`Phase` objects (kernel phases and exchange barriers, drawn from
the canonical :data:`PHASE_ORDER` vocabulary).  A :class:`StepEngine`
executes a schedule against an :class:`ExecutionBackend`, timing every
phase: the single-block backend (one phase-body implementation, run solo
as :class:`SequentialBackend` or batched as :class:`EnsembleBackend`) and
the multi-process ``repro.dist`` runtime.  The drivers are thin shims
over this machinery (see :mod:`repro.engine.driver`).
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
from repro.engine.phases import (
    PHASE_KINDS,
    PHASE_ORDER,
    REQUIRED_PHASES,
    FieldSet,
    Phase,
    PhaseKind,
    exchange,
    kernel,
    validate_schedule,
)
from repro.engine.sequential import SequentialBackend, SingleBlockBackend

__all__ = [
    "PHASE_KINDS",
    "PHASE_ORDER",
    "REQUIRED_PHASES",
    "ActivityGate",
    "EngineDriver",
    "EnsembleBackend",
    "EnsembleMemberView",
    "EnsembleSimCov",
    "ExecutionBackend",
    "FieldSet",
    "Phase",
    "PhaseKind",
    "PhaseMetrics",
    "SequentialBackend",
    "SingleBlockBackend",
    "StepContext",
    "StepEngine",
    "exchange",
    "expand_sweep",
    "kernel",
    "validate_schedule",
]
