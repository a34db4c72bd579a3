"""The distributed driver shim.

`DistSimCov` mirrors the other drivers' public API (step/run/series/
gather_field/checkpointable ``pool``/``step_num``) while the actual
kernels run in worker processes.  Because workers hold real OS resources
(processes, shared-memory segments), this driver is also a context
manager; :meth:`DistSimCov.close` is idempotent and always releases
everything, even after a failure.
"""

from __future__ import annotations

import numpy as np

from repro.core.params import SimCovParams
from repro.dist.backend import DistBackend
from repro.dist.worker import FaultSpec
from repro.engine.driver import EngineDriver
from repro.engine.metrics import PhaseMetrics
from repro.grid.decomposition import DecompositionKind


class DistSimCov(EngineDriver):
    """Multi-process SIMCoV over shared-memory halo exchange.

    Parameters match :class:`~repro.core.model.SequentialSimCov` plus the
    distributed knobs of :class:`~repro.dist.backend.DistBackend`.  Use as
    a context manager (or call :meth:`close`) so worker processes and
    ``/dev/shm`` segments are released deterministically::

        with DistSimCov(params, nranks=4, seed=42) as sim:
            series = sim.run()
    """

    def __init__(
        self,
        params: SimCovParams,
        nranks: int,
        seed: int = 0,
        seed_gids: np.ndarray | None = None,
        structure_gids: np.ndarray | None = None,
        decomposition: DecompositionKind = DecompositionKind.BLOCK,
        active_gating: bool = True,
        barrier_timeout: float = 60.0,
        start_method: str | None = None,
        fault: FaultSpec | None = None,
        tracer=None,
    ):
        backend = DistBackend(
            params,
            nranks,
            seed=seed,
            seed_gids=seed_gids,
            structure_gids=structure_gids,
            decomposition=decomposition,
            active_gating=active_gating,
            barrier_timeout=barrier_timeout,
            start_method=start_method,
            fault=fault,
            tracer=tracer,
        )
        self._init_engine(backend, tracer=tracer)
        self.nranks = nranks
        #: Coordinator-side shared-memory views of the per-rank blocks —
        #: checkpoint restore writes through these and the parked workers
        #: see the new state at their next step.
        self.blocks = backend.blocks

    # -- metrics -------------------------------------------------------------

    @property
    def phase_metrics(self) -> PhaseMetrics:
        """Per-phase wall time where the work actually ran: the merge of
        every worker's counters (the coordinator's own engine timings are
        still available as ``engine.metrics``)."""
        return self.backend.runtime.worker_metrics()

    # -- teardown ------------------------------------------------------------

    def abort(self) -> None:
        """Raise the runtime's abort flag: every worker parked at a
        barrier unblocks and exits instead of waiting out its timeout.
        A segment interrupted by SIGINT/SIGTERM calls this before
        teardown (:func:`repro.serve.runner.run_segment`)."""
        self.backend.runtime.abort()

    def close(self) -> None:
        self.backend.close()

    def __enter__(self) -> "DistSimCov":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
