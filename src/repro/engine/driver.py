"""Base class for the driver shims.

`SequentialSimCov`, `DistSimCov` and `EnsembleSimCov` keep their
constructor signatures and public attributes, but all of them build an
:class:`~repro.engine.backend.ExecutionBackend` and delegate the entire
step loop to a shared :class:`~repro.engine.engine.StepEngine`.
This base class wires that delegation: stepping, the time series, the
per-step work records, the per-phase metrics, and the checkpoint state
(``pool`` / ``step_num`` are settable so restore works unchanged).
"""

from __future__ import annotations

import importlib

import numpy as np

from repro.core.stats import StepStats, TimeSeries
from repro.engine.backend import ExecutionBackend
from repro.engine.engine import StepEngine
from repro.engine.metrics import PhaseMetrics
from repro.engine.phases import Phase

#: Every backend a run can name (``simcov-repro run --backend``, a serve
#: job's ``backend``): its driver class, by import path so that naming a
#: backend imports only that one, and the keyword its rank count goes by
#: (None: an undivided domain).  SIMCoV-CPU and SIMCoV-GPU compute the
#: single-block trace bit for bit on any decomposition, and their counted
#: work is a function of that trace (:mod:`repro.perf.work`).
DRIVERS = {
    "sequential": ("repro.core.model:SequentialSimCov", None),
    "dist": ("repro.dist.driver:DistSimCov", "nranks"),
    "ensemble": ("repro.engine.ensemble:EnsembleSimCov", None),
}


def build_driver(backend: str, params, nranks: int | None = None, **kwargs):
    """Construct the driver of backend ``backend`` (a :data:`DRIVERS` name);
    ``kwargs`` (``seed`` — ``seeds`` for the ensemble — ``tracer``, ...) go
    to its constructor as they are."""
    path, count_keyword = DRIVERS[backend]
    module, _, name = path.partition(":")
    if count_keyword is not None:
        kwargs[count_keyword] = nranks
    return getattr(importlib.import_module(module), name)(params, **kwargs)


class EngineDriver:
    """Thin facade over a StepEngine + backend pair."""

    backend: ExecutionBackend
    engine: StepEngine

    def _init_engine(self, backend: ExecutionBackend, tracer=None) -> None:
        self.backend = backend
        self.engine = StepEngine(backend, tracer=tracer)
        self.params = backend.params
        self.rng = backend.rng
        self.spec = backend.spec
        self.seed_gids = backend.seed_gids

    # -- stepping ------------------------------------------------------------

    def step(self) -> StepStats:
        return self.engine.step()

    def run(self, num_steps: int | None = None) -> TimeSeries:
        return self.engine.run(num_steps)

    # -- streaming / preemption (serving-layer surface) ------------------------

    def add_step_listener(self, listener) -> None:
        """Call ``listener(stats)`` after every step executed by
        :meth:`run` (per-step streaming: SSE, progress reporting)."""
        self.engine.step_listeners.append(listener)

    def request_preempt(self) -> None:
        """Stop the in-flight :meth:`run` at the next step boundary
        (thread-safe; see :meth:`StepEngine.request_preempt`)."""
        self.engine.request_preempt()

    @property
    def preempted(self) -> bool:
        """Whether the last :meth:`run` exited on a preemption request."""
        return self.engine.preempted

    # -- engine state (checkpointable scalars have setters) -------------------

    @property
    def pool(self) -> float | np.ndarray:
        """The vascular pool: one per member on a batched run."""
        return self.engine.pool

    @pool.setter
    def pool(self, value: float | np.ndarray) -> None:
        self.engine.pool = value

    @property
    def step_num(self) -> int:
        return self.engine.step_num

    @step_num.setter
    def step_num(self, value: int) -> None:
        self.engine.step_num = value

    @property
    def series(self) -> TimeSeries:
        return self.engine.series

    @property
    def step_work(self) -> list[dict]:
        return self.engine.step_work

    @property
    def phase_metrics(self) -> PhaseMetrics:
        """Cumulative per-phase wall-time / call / skip counters."""
        return self.engine.metrics

    @property
    def schedule(self) -> tuple[Phase, ...]:
        """The phase schedule this driver executes."""
        return self.engine.schedule

    @property
    def tracer(self):
        """The engine's telemetry tracer (the no-op tracer by default)."""
        return self.engine.tracer

    # -- inspection ----------------------------------------------------------

    def gather_field(self, name: str) -> np.ndarray:
        return self.backend.gather_field(name)
