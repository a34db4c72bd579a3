"""Batched ensemble execution: N simulations as one vectorized program.

The paper's headline studies are ensembles (the Fig 8 FOI sweep runs 1024
replicas), yet a Python loop over solo runs pays the full interpreter +
numpy dispatch overhead N times per step.  Following DeepABM's design,
:class:`EnsembleBackend` stacks N same-shape replicas along a leading
batch axis (:class:`~repro.core.state.EnsembleBlock`) and executes every
StepEngine phase **once** for the whole batch — per-call overhead is paid
once and the arrays are large enough for numpy (or any injected ``xp``
module) to stream.

Exactness contract: under numpy, member ``b`` of a batched run is
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
- per-member scalar state (vascular pools) evolves by elementwise vector
  ops that reproduce each solo run's float sequence; the ragged attempt
  schedules are one flat member-keyed set of draws, and FOI seeding runs
  per member over solo-layout member views;
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
from repro.core.stats import REDUCED_FIELDS, StepStats
from repro.core.xp import get_array_module
from repro.engine.driver import EngineDriver
from repro.engine.engine import StepContext, StepEngine
from repro.engine.sequential import SingleBlockBackend
from repro.grid.spec import GridSpec
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
    array_module:
        ``xp`` namespace name or adapter (default numpy — the only module
        with the bitwise guarantee; see :mod:`repro.core.xp`).
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
        array_module=None,
    ):
        if isinstance(members, SimCovParams):
            members = [members] * (batch if batch is not None else len(seeds))
        stack = members if isinstance(members, ParamsStack) else ParamsStack(members)
        seeds = np.asarray(seeds, dtype=np.int64)
        if seeds.size != stack.batch:
            raise ValueError(
                f"got {seeds.size} seeds for {stack.batch} ensemble members"
            )
        xp = get_array_module(array_module)
        self.params = stack
        self.spec = GridSpec(stack.members[0].dim)
        self.rng = EnsembleRNG(seeds, xp=xp)
        block = EnsembleBlock(self.spec, self.spec.domain, stack.batch, xp=xp)
        #: Solo-layout views over each member's storage (numpy: writable
        #: views created once — per-step per-member code paths reuse them).
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

    @property
    def batch(self) -> int:
        return self.params.batch

    def step_record(self, ctx) -> dict:
        if self.tracer:
            self.tracer.gauge(
                "ensemble_batch", self.batch, cat="ensemble", step=ctx.step,
            )
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


#: Column index of each reduced stats field, for MemberSeries.field.
_STATS_COLUMNS = {name: i for i, name in enumerate(REDUCED_FIELDS)}


class EnsembleSeries:
    """Column store of every member's per-step statistics.

    Materializing ``B`` :class:`StepStats` objects per step is pure
    Python overhead in the hot loop; the engine instead appends the
    already-computed per-step arrays here, and :class:`MemberSeries`
    views materialize a member's StepStats lazily — bitwise identical to
    the objects the eager fan-out would have built, because the stored
    values *are* the solo-run values.
    """

    def __init__(self, batch: int):
        self.batch = int(batch)
        self.steps_list: list[int] = []
        self.reduced: list[np.ndarray] = []  # (B, 8) float64 per step
        self.pools: list[np.ndarray] = []  # (B,) float64 per step
        self.extravasations: list[np.ndarray] = []
        self.binds: list[np.ndarray] = []
        self.moves: list[np.ndarray] = []

    def append_step(self, step, reduced, pools, ext, binds, moves) -> None:
        self.steps_list.append(int(step))
        self.reduced.append(reduced)
        self.pools.append(pools)
        self.extravasations.append(ext)
        self.binds.append(binds)
        self.moves.append(moves)

    def __len__(self) -> int:
        return len(self.steps_list)

    def truncate(self, length: int) -> None:
        """Drop entries at index >= ``length`` for every member."""
        if length < 0:
            raise ValueError("length must be >= 0")
        for col in (self.steps_list, self.reduced, self.pools,
                    self.extravasations, self.binds, self.moves):
            del col[length:]

    def member(self, b: int) -> "MemberSeries":
        return MemberSeries(self, b)


class MemberSeries:
    """:class:`~repro.core.stats.TimeSeries`-compatible view of one
    member's rows in an :class:`EnsembleSeries` (read API: ``field``,
    ``steps``, ``peak``, ``to_rows``, indexing)."""

    def __init__(self, log: EnsembleSeries, member: int):
        self._log = log
        self.member = int(member)

    def __len__(self) -> int:
        return len(self._log)

    def __getitem__(self, i: int) -> StepStats:
        log, b = self._log, self.member
        return StepStats.from_vector(
            log.steps_list[i],
            log.reduced[i][b],
            pool=float(log.pools[i][b]),
            extravasations=int(log.extravasations[i][b]),
            binds=int(log.binds[i][b]),
            moves=int(log.moves[i][b]),
        )

    def field(self, name: str) -> np.ndarray:
        log, b = self._log, self.member
        if name in _STATS_COLUMNS:
            col = _STATS_COLUMNS[name]
            return np.array([r[b, col] for r in log.reduced], dtype=np.float64)
        if name == "infected":
            # Same left-to-right float adds as StepStats.infected.
            red = self.field("incubating") + self.field("expressing")
            return red + self.field("apoptotic")
        if name == "tcells_vasculature":
            return np.array([p[b] for p in log.pools], dtype=np.float64)
        if name in ("extravasations", "binds", "moves"):
            rows = getattr(log, name)
            return np.array([r[b] for r in rows], dtype=np.float64)
        if name == "step":
            return np.array(log.steps_list, dtype=np.float64)
        raise AttributeError(f"unknown stats field {name!r}")

    def steps(self) -> np.ndarray:
        return np.array(self._log.steps_list, dtype=np.int64)

    def peak(self, name: str) -> tuple[int, float]:
        vals = self.field(name)
        if vals.size == 0:
            raise ValueError("empty time series")
        i = int(np.argmax(vals))
        return int(self._log.steps_list[i]), float(vals[i])

    def to_rows(self) -> list[dict]:
        from dataclasses import fields as dc_fields

        return [
            {f.name: getattr(s, f.name) for f in dc_fields(s)}
            for s in (self[i] for i in range(len(self)))
        ]


class EnsembleEngine(StepEngine):
    """StepEngine with per-member replicated scalar state.

    The vascular pool, the extravasation-attempt schedules and the
    per-step statistics all fan out per member; each member's series
    (a lazy :class:`MemberSeries` view) is bitwise identical to its solo
    run's :class:`~repro.core.stats.TimeSeries`.  ``series`` (the base
    attribute) tracks member 0.
    """

    def __init__(
        self, backend: EnsembleBackend, schedule=None, tracer=None,
        registry=None,
    ):
        super().__init__(backend, schedule, tracer=tracer, registry=registry)
        self.batch = backend.batch
        self.span_attrs = {"ensemble": self.batch}
        self.registry.gauge(
            "simcov_ensemble_batch", "Members in the batched ensemble"
        ).set(backend.batch)
        self._obs_member_rate = self.registry.gauge(
            "simcov_ensemble_member_steps_per_sec",
            "Ensemble throughput: member-steps per wall second",
        )
        self._obs_t0 = None
        stack = backend.params
        self.pools = np.zeros(self.batch, dtype=np.float64)
        self.log = EnsembleSeries(self.batch)
        self.member_series = [self.log.member(b) for b in range(self.batch)]
        #: Base-class attribute: member 0's view (duck-typed TimeSeries).
        self.series = self.member_series[0]
        self._delays = np.array(
            [p.tcell_initial_delay for p in stack.members], dtype=np.int64
        )
        self._gen_rates = np.array(
            [p.tcell_generation_rate for p in stack.members], dtype=np.float64
        )
        self._vascular = np.array(
            [p.tcell_vascular_period for p in stack.members], dtype=np.float64
        )

    def _vector(self, value, dtype=np.int64) -> np.ndarray:
        """Phase outputs arrive as per-member vectors, or as the scalar 0
        when every phase skipped (an idle step) — normalize to a vector."""
        if np.ndim(value):
            return np.asarray(value)
        return np.full(self.batch, value, dtype=dtype)

    def _begin_step(self, t: int) -> StepContext:
        # Per-member vascular pools: elementwise ops replicate each solo
        # run's float sequence exactly (x + 0 careers are avoided by the
        # where; x / period and the max-debit below are elementwise).
        if self._obs_t0 is None:
            self._obs_t0 = perf_counter()
        self.pools = np.where(
            t >= self._delays, self.pools + self._gen_rates, self.pools
        )
        self.pools = self.pools - self.pools / self._vascular
        return StepContext.start(self.params, self.backend.rng, t, self.pools)

    def _debit(self, ctx: StepContext) -> None:
        # Rebound (not mutated): `pool_after` stays this step's snapshot.
        ext = self._vector(ctx.extravasations)
        self.pools = ctx.pool_after = np.maximum(0.0, self.pools - ext)

    def _finish_step(self, ctx: StepContext) -> StepStats:
        """Per-member stats rows; returns member 0's."""
        n = self.batch
        reduced = np.asarray(ctx.reduced)
        if reduced.shape[0] != n:
            raise RuntimeError(
                f"ensemble reduce returned shape {reduced.shape}, "
                f"expected leading batch axis {n}"
            )
        ext = self._vector(ctx.extravasations)
        binds = self._vector(ctx.binds)
        moves = self._vector(ctx.moves)
        self.log.append_step(ctx.step, reduced, ctx.pool_after, ext, binds, moves)
        # Ensemble throughput: member-steps/sec over the engine's
        # lifetime so far (batch members advance together, so one engine
        # step is `batch` member-steps).
        wall = perf_counter() - self._obs_t0
        if wall > 0:
            self._obs_member_rate.set((self.step_num + 1) * n / wall)
        return self.member_series[0][-1]


class EnsembleMemberView:
    """Solo-simulation facade over one ensemble member.

    Duck-types the attributes :mod:`repro.io.checkpoint` reads
    (``params``, ``block``, ``step_num``, ``pool``, ``rng``,
    ``seed_gids``, ``gather_field``), so ``save_checkpoint(path,
    sim.member(b))`` writes a checkpoint that restores — on any
    implementation — into the continuation of member ``b``'s solo run.
    It also takes what :func:`~repro.io.checkpoint.restore_state` writes
    (``block``, settable ``step_num`` / ``pool``, ``backend``): restoring
    one same-step snapshot per member moves the whole batch, since the
    members share one step counter.
    """

    def __init__(self, sim: "EnsembleSimCov", member: int):
        self._sim = sim
        self.member = int(member)
        self.params = sim.params.member(member)
        self.block = sim.backend.member_views[member]
        self.rng = sim.backend.rng.member_rng(member)
        self.seed_gids = sim.backend.member_seed_gids[member]

    @property
    def backend(self) -> EnsembleBackend:
        return self._sim.backend

    @property
    def step_num(self) -> int:
        return self._sim.step_num

    @step_num.setter
    def step_num(self, value: int) -> None:
        self._sim.step_num = value

    @property
    def pool(self) -> float:
        return float(self._sim.engine.pools[self.member])

    @pool.setter
    def pool(self, value: float) -> None:
        # Rebind, never mutate: the series log holds the old array.
        pools = self._sim.engine.pools.copy()
        pools[self.member] = value
        self._sim.engine.pools = pools

    @property
    def series(self) -> MemberSeries:
        return self._sim.member_series[self.member]

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
    array_module:
        ``xp`` plug-in selector (see :mod:`repro.core.xp`).
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
        array_module=None,
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
            array_module=array_module,
        )
        self.backend = backend
        self.engine = EnsembleEngine(backend, tracer=tracer)
        self.params = backend.params
        self.rng = backend.rng
        self.spec = backend.spec
        self.seed_gids = backend.seed_gids
        self.block = backend.block
        self.gate = backend.gate

    @property
    def batch(self) -> int:
        return self.backend.batch

    @property
    def member_series(self) -> list[MemberSeries]:
        """Per-member time series views, index-aligned with the seeds."""
        return self.engine.member_series

    @property
    def pools(self) -> np.ndarray:
        """Per-member vascular pools."""
        return self.engine.pools

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
