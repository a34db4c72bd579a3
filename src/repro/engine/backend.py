"""The execution-backend protocol the StepEngine drives.

A backend owns the substrate state (blocks, gates, worker processes)
and implements each phase of its schedule as a ``phase_<name>`` method;
a phase it has no method for is skipped (the dist coordinator has only
``phase_reduce``: its ranks run the rest of the schedule).

A phase handler returns ``False`` to report "reached but skipped" (a
kernel with no live region, a periodic phase that is not due); any
other return value counts as an execution in the engine's metrics.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.core.params import SimCovParams
from repro.core.seeding import apply_seeds, seed_infections
from repro.core.state import VoxelBlock
from repro.engine.phases import Phase
from repro.grid.spec import GridSpec
from repro.rng.streams import VoxelRNG
from repro.telemetry.tracer import NULL_TRACER


class ExecutionBackend(abc.ABC):
    """Substrate adapter: state + phase implementations for one platform."""

    #: Short identifier used in logs/records.
    name: str = "backend"

    #: Telemetry spigot; the engine installs its tracer here when tracing
    #: is on, so backends can emit sub-op spans (counters and gauges go
    #: to the :mod:`repro.obs` registry, traced or not).
    #: The class default is the shared no-op tracer — ``if self.tracer:``
    #: is the whole cost when telemetry is off.
    tracer = NULL_TRACER

    #: Extra attributes the engine stamps on every phase/step span.
    span_attrs: dict = {}

    params: SimCovParams
    rng: VoxelRNG
    spec: GridSpec
    seed_gids: np.ndarray

    # -- construction helpers ------------------------------------------------

    def _init_common(self, params: SimCovParams, seed: int) -> None:
        """Shared constructor prologue: params, RNG, grid spec."""
        self.params = params
        self.rng = VoxelRNG(seed)
        self.spec = GridSpec(params.dim)

    def _seed_blocks(
        self,
        blocks: list[VoxelBlock],
        seed_gids: np.ndarray | None,
        structure_gids: np.ndarray | None,
    ) -> None:
        """Apply structure + FOI seeds identically to every block."""
        if structure_gids is not None:
            from repro.core.structure import apply_structure

            for b in blocks:
                apply_structure(b, structure_gids)
        if seed_gids is None:
            seed_gids = seed_infections(self.params, self.rng)
        self.seed_gids = np.asarray(seed_gids, dtype=np.int64)
        for b in blocks:
            apply_seeds(b, self.seed_gids)

    # -- the protocol --------------------------------------------------------

    @abc.abstractmethod
    def schedule(self) -> tuple[Phase, ...]:
        """This backend's per-step schedule."""

    def begin_step(self, ctx) -> None:
        """Reset per-step scratch state / take accounting snapshots; runs
        in the previous ``reduce`` when it launches (``StepContext``)."""

    def execute(self, phase: Phase, ctx):
        """Dispatch one phase; ``False`` means skipped."""
        handler = getattr(self, f"phase_{phase.name}", None)
        if handler is None:
            return False
        return handler(ctx)

    def state_restored(self) -> None:
        """The field arrays were rewritten behind the backend's back
        (:func:`repro.io.checkpoint.restore_state`): drop whatever was
        derived from the old state — activity flags, cached statistics,
        trusted ghost strips.  Default: nothing is cached."""

    def step_record(self, ctx) -> dict:
        """Backend-specific extras merged into the engine's per-step
        ``step_work`` record (ledger deltas, comm counters, ...)."""
        return {}

    # -- inspection ----------------------------------------------------------

    @abc.abstractmethod
    def gather_field(self, name: str) -> np.ndarray:
        """Assembled global interior view of one voxel field."""
