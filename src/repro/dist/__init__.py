"""repro.dist — a real multi-process distributed runtime.

Runs StepEngine ranks as OS processes with every rank's field arrays —
its owned voxels and a ghost band one step's dependency cone deep — in
``multiprocessing.shared_memory``, so the one band pull a step is a
zero-copy read of neighbor blocks, coordinated by a versioned barrier
protocol.  Bitwise identical to the sequential reference for any rank
count (tests/dist/test_dist_golden.py).

:mod:`repro.dist.resilient` adds the production fault-tolerance layer:
:class:`ResilientDistSimCov` supervises the runtime with shadow
checkpoints, bounded automatic restart (optionally shrinking to fewer
ranks) and bitwise-exact replay (tests/dist/test_resilient.py).
"""

from repro.dist.backend import DistBackend
from repro.dist.control import (
    BarrierTimeoutError,
    DistAborted,
    DistError,
    WorkerFailedError,
)
from repro.dist.driver import DistSimCov
from repro.dist.resilient import (
    Incident,
    ResilientDistSimCov,
    RestartPolicy,
    RestartsExhaustedError,
    format_incident_log,
    write_incident_log,
)
from repro.dist.runtime import DistRuntime
from repro.dist.worker import FAULT_MODES, FaultSpec, WorkerSpec, dist_schedule

__all__ = [
    "BarrierTimeoutError",
    "DistAborted",
    "DistBackend",
    "DistError",
    "DistRuntime",
    "DistSimCov",
    "FAULT_MODES",
    "FaultSpec",
    "Incident",
    "ResilientDistSimCov",
    "RestartPolicy",
    "RestartsExhaustedError",
    "WorkerSpec",
    "WorkerFailedError",
    "dist_schedule",
    "format_incident_log",
    "write_incident_log",
]
