"""The single-block execution backend: one undivided block, no communication.

This is the ground-truth substrate — every exchange barrier in the
canonical schedule maps to a no-op because a single block covers the
whole domain and its ghosts only ever mirror the no-flux boundary.  The
parallel backends must reproduce its per-step state exactly (see
tests/integration), because all randomness is keyed by global voxel id.

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
from repro.core.stats import RegionReducer
from repro.engine.activity import ActivityGate, bounding_box
from repro.engine.backend import ExecutionBackend
from repro.engine.phases import Phase, exchange, kernel


def _within(parts, box) -> list[tuple[slice, ...]]:
    """Each part cropped to ``box``; the parts it misses are dropped."""
    out = []
    for part in parts:
        crop = tuple(
            slice(max(a.start, b.start), min(a.stop, b.stop))
            for a, b in zip(part, box)
        )
        if all(s.start < s.stop for s in crop):
            out.append(crop)
    return out


class SingleBlockBackend(ExecutionBackend):
    """Whole-domain semantics, active-region execution, canonical order.

    The two stencil bodies that a halo exchange can overlap, ``intents``
    and ``diffuse``, run over a list of *parts* that :meth:`_fence_parts`
    splits from the region: the parts that need no fresh ghosts, run
    before the halo fence, and the parts that wait for it.  One block has
    no fence, so everything runs after it, in the kernel phase; a dist
    rank (:class:`~repro.dist.worker.RankBackend`) runs the first parts in
    its exchange and leaves the rest to the same phase bodies.
    """

    def _init_block(
        self, block, min_chemokine, active_gating, tile_shape, sweep_period,
        intents=None,
    ) -> None:
        """Shared constructor epilogue: intents, scratch arrays and the gate."""
        xp = block.xp
        self.block = block
        self.intents = (
            kernels.IntentArrays(block.shape, xp=xp) if intents is None else intents
        )
        #: What ``resolve`` reads the intents through: the raw arrays here,
        #: merged neighbour bids on a dist rank.
        self._resolve_intents = self.intents
        self._scratch_v = xp.zeros_like(block.virions)
        self._scratch_c = xp.zeros_like(block.chemokine)
        self.gate = ActivityGate(
            block,
            min_chemokine,
            sweep_period=sweep_period,
            tile_shape=tile_shape,
            enabled=active_gating,
        )
        self.reducer = RegionReducer(block)

    # -- schedule ------------------------------------------------------------

    def schedule(self) -> tuple[Phase, ...]:
        """The full canonical schedule; every barrier is a no-op here."""
        return (
            exchange("open_exchange", doc="no-op: single block"),
            kernel("age_extravasate"),
            exchange("boundary_exchange", doc="no-op: single block"),
            kernel("intents"),
            exchange("tiebreak_exchange", doc="no-op: single block"),
            kernel("resolve"),
            exchange("result_exchange", doc="no-op: single block"),
            kernel("apply_results", doc="no-op: nothing crosses a boundary"),
            kernel("epithelial"),
            exchange("concentration_exchange", doc="no-op: single block"),
            kernel("diffuse"),
            kernel("reduce"),
            kernel("tile_sweep", doc="periodic active-region sweep (§3.2)"),
        )

    # -- the overlapped bodies -----------------------------------------------

    def _fence_parts(self, region) -> tuple[tuple, tuple]:
        """``region`` split into the parts a stencil kernel may run before
        the halo fence and the parts that wait for fresh ghosts (none of
        either when idle).  One block has no fence: all of it waits."""
        return (), (() if region is None else (region,))

    def _open_intents(self, ctx) -> tuple:
        """Clear last step's intents (on an idle step only that slab, which
        a dist peer may still pull) and run the intents parts before the
        fence; returns the parts after it.
        Runs once a step, at the first call: in a rank's exchange, or at
        the top of :meth:`phase_intents`."""
        after = ctx.extras.get("intents")
        if after is None:
            region = self.gate.region()
            self.intents.clear(() if region is None else region)
            before, after = self._fence_parts(region)
            self._intents(ctx, before)
            ctx.extras["intents"] = after
        return after

    def _open_diffuse(self, ctx) -> tuple:
        """Mirror the no-flux ghosts and diffuse the parts before the fence
        into scratch; returns the parts after it.  Once a step, like
        :meth:`_open_intents`."""
        after = ctx.extras.get("diffuse")
        if after is None:
            region = self.gate.region()
            before, after = self._fence_parts(region)
            if region is not None:
                kernels.mirror_fields(self.block)
            self._diffuse(before)
            ctx.extras["diffuse"] = after
        return after

    def _intents(self, ctx, parts) -> None:
        for part in parts:
            kernels.tcell_intents(
                self.params, self.rng, ctx.step, self.block, self.intents, part
            )

    def _diffuse(self, parts) -> None:
        for part in parts:
            kernels.concentration_update(
                self.params, self.block, part, self._scratch_v, self._scratch_c
            )

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
        kernels.tcell_age(self.block, region)
        ctx.extravasations = kernels.apply_extravasation(
            self.params, self.block, ctx.attempts, region
        )

    def _tcell_box(self, region: tuple[slice, ...]) -> tuple[slice, ...] | None:
        """Tight box around the T cells that can bid into ``region`` — those
        in it or in the ghost layer around it — or None if there are none
        (on a batched block: in any member).

        The gate region covers the *chemokine* footprint, which is
        typically far wider than the T-cell cloud — and the T-cell kernels
        find their agents by mask passes over the region they are given
        (the per-agent work after that is gathered, so it does not grow
        with the box).  Restricting them to
        this box is bitwise-neutral: every voxel outside it provably
        produces no intent, and outside its one-voxel margin no move and
        no bind.  A single block's ghosts never hold a T cell
        (``mirror_fields`` mirrors only the concentrations); a rank's hold
        its neighbours' once the boundary wave has landed, and their bids
        into this rank's voxels must be resolved here even when it owns
        no T cell.  With gating disabled the box is ``region`` itself, so
        the whole-domain reference stays whole-domain.
        """
        if not self.gate.enabled:
            return region
        g = self.block.ghost
        first = len(region) - self.block.spec.ndim
        grown = region[:first] + tuple(
            slice(s.start - g, s.stop + g) for s in region[first:]
        )
        present = self.block.xp.asnumpy(self.block.tcell[grown]) != 0
        box = bounding_box(present, [s.start for s in grown[first:]])
        return None if box is None else region[:first] + box

    def phase_intents(self, ctx):
        after = self._open_intents(ctx)
        region = self.gate.region()
        if region is None:
            return False
        box = ctx.extras["tcell_box"] = self._tcell_box(region)
        if box is not None:
            self._intents(ctx, _within(after, box))

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
        ctx.moves = kernels.resolve_moves(self.block, self._resolve_intents, box)
        ctx.binds = kernels.resolve_binds(
            self.params, self.rng, ctx.step, self.block, self._resolve_intents,
            box,
        )

    def phase_apply_results(self, ctx):
        return False

    def phase_epithelial(self, ctx):
        region = self.gate.region()
        if region is None:
            return False
        kernels.epithelial_update(
            self.params, self.rng, ctx.step, self.block, region
        )
        kernels.production_update(self.params, self.block, region, step=ctx.step)

    def phase_diffuse(self, ctx):
        after = self._open_diffuse(ctx)
        region = self.gate.region()
        if region is None:
            return False
        self._diffuse(after)
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
        self.gate.reset()
        self.reducer.reset()

    def step_record(self, ctx) -> dict:
        if self.tracer:
            self.tracer.gauge(
                "active_voxels", self.gate.count, cat="gating",
                step=ctx.step, gated=self.gate.enabled,
            )
        return {"active_voxels": self.gate.count}

    # -- inspection ----------------------------------------------------------

    def gather_field(self, name: str) -> np.ndarray:
        block = self.block
        return block.xp.asnumpy(getattr(block, name)[block.interior]).copy()


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
