"""repro.dist — a real multi-process distributed runtime.

Runs StepEngine ranks as OS processes with every rank's field arrays —
its owned voxels and a ghost band one step's dependency cone deep — in
``multiprocessing.shared_memory``, so the one band pull a step is a
zero-copy read of neighbor blocks, coordinated by a versioned barrier
protocol.  Bitwise identical to the sequential reference for any rank
count (tests/dist/test_dist_golden.py).

Recovery from a lost worker is not here: a run is a job, and
:func:`repro.serve.runner.run_job` retries it from shadow checkpoints
under a :class:`~repro.resilience.RestartPolicy`, at the same or one
fewer rank count (tests/dist/test_resilient.py).
"""

from repro.dist.backend import DistBackend
from repro.dist.control import (
    BarrierTimeoutError,
    DistAborted,
    DistError,
    WorkerFailedError,
)
from repro.dist.driver import DistSimCov
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
    "WorkerSpec",
    "WorkerFailedError",
    "dist_schedule",
]
