"""Batched ensemble execution: N simulations as one vectorized program.

The paper's headline studies are ensembles (the Fig 8 FOI sweep runs 1024
replicas), yet a Python loop over solo runs pays the full interpreter +
numpy dispatch overhead N times per step.  Following DeepABM's design,
:class:`EnsembleBackend` stacks N same-shape replicas along a leading
batch axis (:class:`~repro.core.state.EnsembleBlock`) and executes every
StepEngine phase **once** for the whole batch — per-call overhead is paid
once and the arrays are large enough for numpy to stream.

Exactness contract: member ``b`` of a batched run is
**bitwise identical** to the solo sequential run with that member's
(params, seed) — the same guarantee the activity gate and the distributed
runtime already carry.  The argument (DESIGN.md §4d):

- every kernel is elementwise over voxels, and elementwise double/int ops
  are batch-invariant;
- randomness is keyed ``(member_seed, stream, step, voxel)`` and hashed
  per element (:class:`~repro.rng.streams.EnsembleRNG`), so draws match
  the member's solo :class:`~repro.rng.streams.VoxelRNG` exactly;
- the gate region is the **union** bounding box of the members' active
  sets — a superset of each member's own region, which the gate contract
  makes bitwise-invisible;
- the one :class:`~repro.engine.engine.StepEngine` keeps the vascular
  pool as a ``(B,)`` vector updated by the solo run's expressions, which
  are elementwise; the ragged attempt schedules are one flat member-keyed
  set of draws, and FOI seeding runs per member over solo-layout member
  views;
- the one :class:`~repro.core.stats.TimeSeries` stores each step's
  per-member rows as the engine produced them; ``series.member(b)`` builds
  member ``b``'s :class:`~repro.core.stats.StepStats` from them when read;
- the stats reduction is probe-guarded
  (:func:`repro.core.stats._batched_sum_exact`): the vectorized sum is
  used only on layouts where it is provably bitwise-equal to per-member
  sums.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from repro.core.params import ParamsStack, SimCovParams
from repro.core.seeding import apply_seeds, seed_infections
from repro.core.state import EnsembleBlock
from repro.core.stats import TimeSeries
from repro.engine.driver import EngineDriver
from repro.engine.sequential import SingleBlockBackend
from repro.grid.spec import GridSpec
from repro.obs.registry import get_registry
from repro.rng.streams import EnsembleRNG


class EnsembleBackend(SingleBlockBackend):
    """Batched execution of N same-grid simulations: the single-block
    schedule over an :class:`EnsembleBlock`, every phase run once for the
    whole batch.

    Parameters
    ----------
    members:
        A :class:`~repro.core.params.ParamsStack`, or a sequence of
        :class:`~repro.core.params.SimCovParams` (one per member; all
        sharing ``dim``/``num_steps``), or a single params object with
        ``batch`` copies.
    seeds:
        One trial seed per member.  Member ``b`` reproduces the solo run
        ``SequentialSimCov(members[b], seed=seeds[b])`` bitwise.
    batch:
        Member count when ``members`` is a single params object.
    seed_gids:
        Optional explicit per-member FOI lists; default draws each
        member's FOI from its own seed, exactly as its solo run would.
    """

    name = "ensemble"

    def __init__(
        self,
        members,
        seeds,
        batch: int | None = None,
        seed_gids=None,
        structure_gids: np.ndarray | None = None,
        active_gating: bool = True,
        tile_shape: tuple[int, ...] | None = None,
        sweep_period: int | None = None,
    ):
        if isinstance(members, SimCovParams):
            members = [members] * (batch if batch is not None else len(seeds))
        stack = members if isinstance(members, ParamsStack) else ParamsStack(members)
        seeds = np.asarray(seeds, dtype=np.int64)
        if seeds.size != stack.batch:
            raise ValueError(
                f"got {seeds.size} seeds for {stack.batch} ensemble members"
            )
        self.params = stack
        self.spec = GridSpec(stack.members[0].dim)
        self.rng = EnsembleRNG(seeds)
        block = EnsembleBlock(self.spec, self.spec.domain, stack.batch)
        #: Solo-layout views over each member's storage (writable, created
        #: once — per-step per-member code paths reuse them).
        self.member_views = [block.member_view(b) for b in range(stack.batch)]
        if structure_gids is not None:
            from repro.core.structure import apply_structure

            for mv in self.member_views:
                apply_structure(mv, structure_gids)
        #: Per-member FOI gid arrays (possibly ragged across members).
        self.member_seed_gids: list[np.ndarray] = []
        for b, mv in enumerate(self.member_views):
            if seed_gids is not None:
                gids = np.asarray(seed_gids[b], dtype=np.int64)
            else:
                gids = seed_infections(stack.member(b), self.rng.member_rng(b))
            self.member_seed_gids.append(gids)
            apply_seeds(mv, gids)
        self.seed_gids = self.member_seed_gids[0]
        self._init_block(
            block, stack.min_chemokine, active_gating, tile_shape, sweep_period
        )
        self.span_attrs = {"ensemble": stack.batch}
        reg = get_registry()
        reg.gauge(
            "simcov_ensemble_batch", "Members in the batched ensemble"
        ).set(stack.batch)
        self._obs_member_rate = reg.gauge(
            "simcov_ensemble_member_steps_per_sec",
            "Ensemble throughput: member-steps per wall second",
        )
        self._obs_t0 = None

    @property
    def batch(self) -> int:
        return self.params.batch

    def begin_step(self, ctx) -> None:
        if self._obs_t0 is None:
            self._obs_t0 = perf_counter()

    def step_record(self, ctx) -> dict:
        # Member-steps per second since the first step: the members
        # advance together, so one step is ``batch`` member-steps.
        wall = perf_counter() - self._obs_t0
        if wall > 0:
            self._obs_member_rate.set((ctx.step + 1) * self.batch / wall)
        record = super().step_record(ctx)
        record["ensemble_batch"] = self.batch
        return record

    # -- inspection ----------------------------------------------------------

    def gather_field(self, name: str, member: int | None = None) -> np.ndarray:
        """Interior of one field: all members ``(B, *owned)``, or one
        member's solo-shaped interior."""
        if member is None:
            return super().gather_field(name)
        mv = self.member_views[member]
        return getattr(mv, name)[mv.interior].copy()


class EnsembleMemberView:
    """Solo-simulation facade over one ensemble member.

    Duck-types the attributes :func:`~repro.io.checkpoint.snapshot_state`
    reads (``params``, ``block``, ``step_num``, ``pool``, ``rng``,
    ``seed_gids``, ``gather_field``), so ``save_checkpoint(path,
    sim.member(b))`` writes a checkpoint that restores — on any
    implementation — into the continuation of member ``b``'s solo run.
    A batch restores whole, through the driver itself.
    """

    def __init__(self, sim: "EnsembleSimCov", member: int):
        self._sim = sim
        self.member = int(member)
        self.params = sim.params.member(member)
        self.block = sim.backend.member_views[member]
        self.rng = sim.backend.rng.member_rng(member)
        self.seed_gids = sim.backend.member_seed_gids[member]

    @property
    def step_num(self) -> int:
        return self._sim.step_num

    @property
    def pool(self) -> float:
        return float(self._sim.engine.pool[self.member])

    @property
    def series(self) -> TimeSeries:
        return self._sim.engine.series.member(self.member)

    def gather_field(self, name: str) -> np.ndarray:
        return self._sim.backend.gather_field(name, member=self.member)


class EnsembleSimCov(EngineDriver):
    """Driver: N simulations stacked into one vectorized step loop.

    Parameters
    ----------
    members:
        One :class:`SimCovParams` (replicated ``batch`` times — an
        initial-condition ensemble over seeds), a sequence of params (a
        parameter sweep), or a ready :class:`ParamsStack`.
    seeds:
        Per-member trial seeds; default ``base_seed + arange(B)``.
    batch:
        Member count when ``members`` is a single params object and
        ``seeds`` is not given.
    """

    def __init__(
        self,
        members,
        seeds=None,
        batch: int | None = None,
        base_seed: int = 0,
        seed_gids=None,
        structure_gids: np.ndarray | None = None,
        active_gating: bool = True,
        tile_shape: tuple[int, ...] | None = None,
        sweep_period: int | None = None,
        tracer=None,
    ):
        if seeds is None:
            if batch is None:
                batch = 1 if isinstance(members, SimCovParams) else len(members)
            seeds = base_seed + np.arange(batch, dtype=np.int64)
        backend = EnsembleBackend(
            members, seeds, batch=batch, seed_gids=seed_gids,
            structure_gids=structure_gids, active_gating=active_gating,
            tile_shape=tile_shape, sweep_period=sweep_period,
        )
        self._init_engine(backend, tracer=tracer)
        self.block = backend.block
        self.gate = backend.gate

    @property
    def batch(self) -> int:
        return self.backend.batch

    @property
    def member_series(self) -> list[TimeSeries]:
        """Per-member time series views, index-aligned with the seeds."""
        return [self.engine.series.member(b) for b in range(self.batch)]

    def member(self, b: int) -> EnsembleMemberView:
        """Checkpointable solo-sim facade over member ``b``."""
        return EnsembleMemberView(self, b)

    def gather_field(self, name: str, member: int | None = None) -> np.ndarray:
        return self.backend.gather_field(name, member=member)


def expand_sweep(params: SimCovParams, key: str, values) -> list[SimCovParams]:
    """One params object per sweep value — the Fig 8 pattern.

    ``key`` must be a SimCovParams field; integer fields get rounded
    values.  Raises ``ValueError`` naming the valid fields for typos.
    """
    if not hasattr(params, key):
        from dataclasses import fields

        valid = ", ".join(sorted(f.name for f in fields(params)))
        raise ValueError(f"unknown sweep parameter {key!r}; valid: {valid}")
    current = getattr(params, key)
    out = []
    for v in values:
        if isinstance(current, int) and not isinstance(current, bool):
            v = int(round(float(v)))
        else:
            v = float(v)
        out.append(params.with_(**{key: v}))
    return out
