"""The single-block execution backend: one undivided block, no communication.

This is the ground-truth substrate — its schedule has no exchange
barrier, because a single block covers the whole domain and its ghosts
only ever mirror the no-flux boundary.  The parallel backends must
reproduce its per-step state exactly (see tests/integration), because all
randomness is keyed by global voxel id.

:class:`SingleBlockBackend` is the one implementation of that schedule.
It is written against the trailing spatial axes of its block, so the same
phase bodies serve a solo :class:`~repro.core.state.VoxelBlock`
(:class:`SequentialBackend`) and a batched
:class:`~repro.core.state.EnsembleBlock` with a leading member axis
(:class:`~repro.engine.ensemble.EnsembleBackend`); the subclasses only
build their block, rng and params.

Kernel phases run over the :class:`~repro.engine.activity.ActivityGate`
region — the active bounding box re-derived by a periodic ``tile_sweep``
(§3.2) — instead of the whole domain, the T-cell phases over the tighter
box around present T cells, and ``reduce`` counts only the region
(:class:`~repro.core.stats.RegionReducer`).  All are bitwise-invisible;
construct with ``active_gating=False`` to force the whole-domain baseline
that the property tests and the benchmark harness compare against.
"""

from __future__ import annotations

import numpy as np

from repro.core import kernels
from repro.core.params import SimCovParams
from repro.core.state import VoxelBlock
from repro.core.stats import RegionReducer, crop
from repro.engine.activity import ActivityGate, bounding_box
from repro.engine.backend import ExecutionBackend
from repro.engine.phases import Phase


#: What each kernel phase reads around a voxel to write it, in voxels
#: (Chebyshev distance), in schedule order: ``{phase: {written: {read:
#: radius}}}`` over the T-cell fields ``T``, the epithelial fields ``E``,
#: the concentrations ``C`` and the intents — a T cell's own choice ``M``
#: (at its voxel) and the bids ``B`` (at their target).  A choice reads
#: its Moore neighbourhood; a bid comes from a neighbour's choice; a
#: mover reads its target's bid and an arrival its contenders' choices
#: and payload; a bind lands where its bid does; diffusion reads the
#: face neighbours.  Everything else is pointwise.
READS = {
    "age_extravasate": {"T": {"T": 0, "C": 0}},
    "intents": {"M": {"T": 1, "E": 1}, "B": {"T": 1, "E": 2}},
    "resolve": {"T": {"T": 1, "M": 1, "B": 1}, "E": {"E": 0, "B": 0}},
    "epithelial": {"E": {"E": 0, "C": 0}, "C": {"E": 0, "C": 0}},
    "diffuse": {"C": {"C": 1}},
}


def step_reach() -> int:
    """How far one step's update of a voxel reads the state the step
    started from: the radius of its dependency cone, folded from
    :data:`READS` (3: the mover's target bid, its contender one voxel
    further, and that contender's Moore neighbourhood).

    A block that holds every voxel within this distance of the voxels it
    owns, at their step-start values, computes those voxels' next state
    itself: the width of a dist rank's ghost band
    (:class:`~repro.dist.worker.RankBackend`).  Its outermost layer is the
    block's ghost ring, which the kernels read but never update; what
    they read there — a contender's bind candidates, unwritten before
    ``resolve``, and a move target's occupancy, which decides only
    whether a bid lands on the ring itself — reaches no owned voxel.
    """
    reach = {"T": 0, "E": 0, "C": 0}
    for writes in READS.values():
        reach.update({
            field: max(reach[read] + radius for read, radius in reads.items())
            for field, reads in writes.items()
        })
    return max(reach["T"], reach["E"], reach["C"])


class SingleBlockBackend(ExecutionBackend):
    """Whole-domain semantics, active-region execution, canonical order.

    A dist rank (:class:`~repro.dist.worker.RankBackend`) is this backend
    over its owned voxels plus a ghost band :func:`step_reach` deep: the
    same bodies, with its tallies, statistics and published box cropped
    to the voxels it owns (:attr:`counted`).
    """

    def _init_block(
        self, block, min_chemokine, active_gating, tile_shape, sweep_period,
        counted=None,
    ) -> None:
        """Shared constructor epilogue: intents, scratch arrays and the gate.

        ``counted`` is the box (padded slices) of the voxels this block
        accounts for: None for all of them, a dist rank's owned box
        inside its band.
        """
        self.block = block
        self.counted = counted
        self.intents = kernels.IntentArrays(block.shape)
        # Fresh zero pages: the diffusion writes only the region's.
        self._scratch_v = np.zeros(block.shape)
        self._scratch_c = np.zeros(block.shape)
        #: The region the last mirror was made for (None: none since the
        #: block was made or restored): its commit wrote the fields after
        #: that mirror, so the next one reaches its faces too.
        self._mirrored = None
        self.gate = ActivityGate(
            block,
            min_chemokine,
            sweep_period=sweep_period,
            tile_shape=tile_shape,
            enabled=active_gating,
        )
        self.reducer = RegionReducer(block, counted)

    # -- schedule ------------------------------------------------------------

    def schedule(self) -> tuple[Phase, ...]:
        """The kernel phases: one block exchanges nothing."""
        return tuple(map(Phase, (
            "age_extravasate", "intents", "resolve", "epithelial", "diffuse",
            "reduce", "tile_sweep",
        )))

    def _counted_part(self, region) -> tuple[slice, ...] | None:
        """The part of ``region`` this block accounts for (None: none)."""
        return region if self.counted is None else crop(region, self.counted)

    # -- kernel phases -------------------------------------------------------

    def phase_age_extravasate(self, ctx):
        if self.gate.stale:
            # Fresh, restored, or (on a rank) its ghosts just refreshed:
            # sweep now.  Nothing has written the block since the last
            # reduce (if any), so its totals still hold.
            self._sweep()
        region = self.gate.region()
        if region is None:
            return False
        ctx.extras["aged"] = kernels.tcell_age(self.block, region)
        ctx.extravasations = kernels.apply_extravasation(
            self.params, self.block, ctx.attempts, region, self.counted
        )

    def _tcell_box(self, ctx, region: tuple[slice, ...]) -> tuple[slice, ...] | None:
        """Tight box around the T cells in ``region``, or None if there are
        none (on a batched block: in any member).

        The gate region covers the *chemokine* footprint, which is
        typically far wider than the T-cell cloud — and the T-cell kernels
        find their agents by mask passes over the region they are given
        (the per-agent work after that is gathered, so it does not grow
        with the box).  Restricting them to
        this box is bitwise-neutral: every voxel outside it provably
        produces no intent, and outside its one-voxel margin no move and
        no bind.  The box is the one ``tcell_age`` found — every T cell
        lies in the region (the gate's invariant) — unless a T cell entered
        the tissue since, which the extravasation tally tells only where it
        counts the whole region.  Then a pass over the region finds it.  (A
        T cell in the ghost layer — on a dist rank, a neighbour's, pulled —
        makes no intent: it lies outside the region.)  With gating
        disabled the box is ``region`` itself, so the whole-domain
        reference stays whole-domain.
        """
        if not self.gate.enabled:
            return region
        first = len(region) - self.block.spec.ndim
        counted = self._counted_part(region) == region
        if "aged" in ctx.extras and counted and not np.any(ctx.extravasations):
            box = ctx.extras["aged"]
        else:
            present = self.block.tcell[region] != 0
            box = bounding_box(present, [s.start for s in region[first:]])
        return None if box is None else region[:first] + box

    def phase_intents(self, ctx):
        region = self.gate.region()
        box = None if region is None else self._tcell_box(ctx, region)
        # Last step's intents go, and the slab this step's may reach is
        # marked (:meth:`~repro.core.kernels.IntentArrays.clear`).
        self.intents.clear(box or ())
        if region is None:
            return False
        ctx.extras["tcell_box"] = box
        if box is not None:
            kernels.tcell_intents(
                self.params, self.rng, ctx.step, self.block, self.intents, box
            )

    def phase_resolve(self, ctx):
        region = self.gate.region()
        if region is None:
            return False
        box = ctx.extras["tcell_box"]
        if box is None:
            # No T cells -> no intents were written, so moves and binds
            # keep their zero defaults.
            return None
        # Bids and arrivals scatter one voxel outward.
        box = tuple(
            slice(max(s.start - 1, base.start), min(s.stop + 1, base.stop))
            for s, base in zip(box, region)
        )
        ctx.moves = kernels.resolve_moves(self.block, self.intents, box, self.counted)
        ctx.binds = kernels.resolve_binds(
            self.params, self.rng, ctx.step, self.block, self.intents, box,
            self.counted,
        )

    def phase_epithelial(self, ctx):
        region = self.gate.region()
        if region is None:
            return False
        kernels.epithelial_update(
            self.params, self.rng, ctx.step, self.block, region
        )
        kernels.production_update(self.params, self.block, region, step=ctx.step)

    def phase_diffuse(self, ctx):
        region = self.gate.region()
        if region is None:
            return False
        kernels.mirror_fields(self.block, region, self._mirrored)
        self._mirrored = region
        kernels.concentration_update(
            self.params, self.block, region, self._scratch_v, self._scratch_c
        )
        kernels.concentration_commit(
            self.params, self.block, [region], self._scratch_v,
            self._scratch_c, step=ctx.step,
        )

    def phase_reduce(self, ctx) -> None:
        ctx.reduced = self.reducer.reduce(self.gate.region())

    def phase_tile_sweep(self, ctx):
        if not self.gate.due(ctx.step):
            return False
        # `reduce` is the phase before this one: its totals still hold.
        self._sweep()

    def _sweep(self) -> None:
        self.gate.sweep()
        self.reducer.rebase(self.gate.region())

    def state_restored(self) -> None:
        # The mirrored no-flux ghosts derive from the rewritten interior:
        # re-derive them all, or a sweep would take the old ones for activity.
        kernels.mirror_fields(self.block)
        self._mirrored = None
        self.gate.reset()
        self.reducer.reset()

    def step_record(self, ctx) -> dict:
        return {"active_voxels": self.gate.count}

    # -- inspection ----------------------------------------------------------

    def gather_field(self, name: str) -> np.ndarray:
        block = self.block
        return getattr(block, name)[block.interior].copy()


class SequentialBackend(SingleBlockBackend):
    """The solo block.

    Parameters
    ----------
    params, seed, seed_gids, structure_gids:
        As before.
    active_gating:
        Skip quiescent space via the §3.2 periodic sweep (default).
        ``False`` processes the whole domain every step (the reference
        baseline; results are bitwise identical either way).
    tile_shape, sweep_period:
        Activity-gate tuning, as for the GPU backend: tile extents
        (default 8 per dimension) and steps between sweeps (default and
        maximum sound value: the smallest tile side).
    """

    name = "sequential"

    def __init__(
        self,
        params: SimCovParams,
        seed: int = 0,
        seed_gids: np.ndarray | None = None,
        structure_gids: np.ndarray | None = None,
        active_gating: bool = True,
        tile_shape: tuple[int, ...] | None = None,
        sweep_period: int | None = None,
    ):
        self._init_common(params, seed)
        block = VoxelBlock(self.spec, self.spec.domain)
        self._seed_blocks([block], seed_gids, structure_gids)
        self._init_block(
            block, params.min_chemokine, active_gating, tile_shape, sweep_period
        )

    def activity_fraction(self) -> float:
        """Fraction of voxels active now (perf-model workload input)."""
        mask = self.block.activity_mask(self.params.min_chemokine)
        return float(mask.mean())
