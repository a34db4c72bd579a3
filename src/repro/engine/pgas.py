"""The PGAS execution backend (SIMCoV-CPU substrate).

Wraps :class:`~repro.pgas.runtime.PgasRuntime`,
:class:`~repro.grid.halo.HaloExchanger` routes and the two-wave RPC
tiebreak of §2.2/§3.1 behind the engine protocol:

- ``open_exchange`` / ``boundary_exchange`` / ``concentration_exchange``
  map to batched boundary-strip RPC waves;
- ``tiebreak_exchange`` and ``result_exchange`` map to RPC progress
  points — wave 1 delivers intent RPCs to owners, wave 2 delivers result
  RPCs back to sources;
- every kernel phase runs rank-by-rank over the per-rank active region
  via :meth:`PgasRuntime.phase`.
"""

from __future__ import annotations

import numpy as np

from repro.core import kernels
from repro.core.params import SimCovParams
from repro.core.state import VoxelBlock
from repro.core.stats import REDUCED_FIELDS, stats_vector
from repro.engine.backend import ExecutionBackend
from repro.engine.phases import FieldSet, Phase, exchange, kernel
from repro.grid.decomposition import Decomposition, DecompositionKind
from repro.grid.halo import HaloExchanger, MergeMode
from repro.grid.spec import moore_offsets
from repro.engine.activity import ActivityGate
from repro.pgas.reductions import ReduceOp
from repro.pgas.runtime import PgasRuntime


class PgasBackend(ExecutionBackend):
    """Rank-parallel SIMCoV on the PGAS runtime.

    Parameters
    ----------
    params, seed:
        As for the other backends; the same seed produces bitwise
        identical simulations across substrates.
    nranks:
        CPU ranks (the paper's per-node count is 128).
    decomposition:
        Block (default) or linear, Fig 1B.
    ranks_per_node:
        For inter- vs intra-node RPC accounting.
    active_gating:
        Skip quiescent space via per-rank activity gates refreshed each
        step after the start-of-step ghost exchange (the CPU active-list
        of §2.2).  ``False`` forces whole-interior processing; results
        are bitwise identical either way.
    """

    name = "pgas"

    def __init__(
        self,
        params: SimCovParams,
        nranks: int,
        seed: int = 0,
        decomposition: DecompositionKind = DecompositionKind.BLOCK,
        ranks_per_node: int = 128,
        seed_gids: np.ndarray | None = None,
        structure_gids: np.ndarray | None = None,
        active_gating: bool = True,
    ):
        self._init_common(params, seed)
        self.decomp = Decomposition.make(self.spec, nranks, decomposition)
        self.runtime = PgasRuntime(nranks, ranks_per_node=ranks_per_node)
        self.exchanger = HaloExchanger(self.decomp)
        self.blocks = [
            VoxelBlock(self.spec, self.decomp.boxes[r]) for r in range(nranks)
        ]
        self.intents = [kernels.IntentArrays(b.shape) for b in self.blocks]
        self.active = [
            ActivityGate(b, params.min_chemokine, sweep_period=1,
                         enabled=active_gating)
            for b in self.blocks
        ]
        self._scratch = [
            (np.zeros_like(b.virions), np.zeros_like(b.chemokine))
            for b in self.blocks
        ]
        # Per-rank buffers filled by RPC handlers during progress.
        self._incoming_moves: list[list[dict]] = [[] for _ in range(nranks)]
        self._incoming_binds: list[list[dict]] = [[] for _ in range(nranks)]
        self._won_moves: list[list[np.ndarray]] = [[] for _ in range(nranks)]
        self._won_binds: list[list[np.ndarray]] = [[] for _ in range(nranks)]
        self._register_handlers()
        self._seed_blocks(self.blocks, seed_gids, structure_gids)
        # Per-step scratch (reset by begin_step).
        self._active_counts: list[int] = []
        self._extr_local: list[int] = []
        self._moves_local: list[int] = []
        self._binds_local: list[int] = []
        self._pending_moves: list[dict | None] = []
        self._pending_binds: list[dict | None] = []
        self._comm_before = None

    # -- schedule ------------------------------------------------------------

    def schedule(self) -> tuple[Phase, ...]:
        """RPC waves for every barrier; two-wave tiebreak (§2.2/§4.1)."""
        return (
            exchange(
                "open_exchange",
                FieldSet(
                    "state",
                    ("epi_state", "virions", "chemokine", "tcell"),
                    MergeMode.REPLACE,
                ),
                doc="start-of-step strips: active-region + bind-stencil input",
            ),
            kernel("age_extravasate"),
            exchange(
                "boundary_exchange",
                FieldSet("state", ("tcell",), MergeMode.REPLACE),
                doc="post-extravasation occupancy snapshot",
            ),
            kernel("intents", doc="intents + intent RPCs (tiebreak wave 1)"),
            exchange("tiebreak_exchange", doc="RPC progress: deliver intent RPCs"),
            kernel("resolve", doc="merge remote bids, resolve, result RPCs"),
            exchange("result_exchange", doc="RPC progress: deliver result RPCs"),
            kernel("apply_results", doc="sources apply wave-2 results"),
            kernel("epithelial"),
            exchange(
                "concentration_exchange",
                FieldSet("state", ("virions", "chemokine"), MergeMode.REPLACE),
                doc="post-production concentration strips",
            ),
            kernel("diffuse"),
            kernel("reduce", doc="tree allreduce of statistics"),
        )

    # -- RPC handlers ----------------------------------------------------------

    def _register_handlers(self) -> None:
        rt = self.runtime

        def recv_boundary(rc, lo, hi, _src_rank, **fields):
            from repro.grid.box import Box

            region = Box(tuple(int(x) for x in lo), tuple(int(x) for x in hi))
            block = self.blocks[rc.rank]
            sl = region.slices_from(block.origin)
            for name, data in fields.items():
                getattr(block, name)[sl] = data

        def recv_move_intents(rc, src_gid, tgt_gid, bid, life, _src_rank):
            self._incoming_moves[rc.rank].append(
                {
                    "src_rank": _src_rank,
                    "src_gid": src_gid,
                    "tgt_gid": tgt_gid,
                    "bid": bid,
                    "life": life,
                }
            )

        def recv_bind_intents(rc, src_gid, tgt_gid, bid, _src_rank):
            self._incoming_binds[rc.rank].append(
                {
                    "src_rank": _src_rank,
                    "src_gid": src_gid,
                    "tgt_gid": tgt_gid,
                    "bid": bid,
                }
            )

        def recv_move_results(rc, won_src_gid, _src_rank):
            self._won_moves[rc.rank].append(won_src_gid)

        def recv_bind_results(rc, won_src_gid, _src_rank):
            self._won_binds[rc.rank].append(won_src_gid)

        rt.register_handler("recv_boundary", recv_boundary)
        rt.register_handler("recv_move_intents", recv_move_intents)
        rt.register_handler("recv_bind_intents", recv_bind_intents)
        rt.register_handler("recv_move_results", recv_move_results)
        rt.register_handler("recv_bind_results", recv_bind_results)

    # -- boundary waves ---------------------------------------------------------

    def _send_boundary_wave(self, fields: tuple[str, ...]) -> None:
        """Each rank ships the strips neighbors' ghosts need (batched per
        route, like a tuned UPC++ code)."""
        for src, dst, region in self.exchanger.replace_routes:
            block = self.blocks[src]
            sl = region.slices_from(block.origin)
            payload = {name: getattr(block, name)[sl].copy() for name in fields}
            self.runtime.ranks[src].rpc(
                dst,
                "recv_boundary",
                lo=np.array(region.lo),
                hi=np.array(region.hi),
                **payload,
            )
        self.runtime.progress()

    # -- local <-> global index helpers ----------------------------------------------

    def _locate(self, rank: int, gids: np.ndarray) -> tuple[tuple, np.ndarray]:
        """Padded-array indices for global ids owned by ``rank``."""
        block = self.blocks[rank]
        coords = self.spec.unravel(gids)
        local = coords - np.array(block.origin)
        return tuple(local.T), coords

    # -- engine protocol ---------------------------------------------------------

    def begin_step(self, ctx) -> None:
        nranks = self.runtime.nranks
        self._comm_before = self.runtime.comm.snapshot()
        self._active_counts = []
        self._extr_local = [0] * nranks
        self._moves_local = [0] * nranks
        self._binds_local = [0] * nranks
        self._pending_moves = [None] * nranks
        self._pending_binds = [None] * nranks

    def state_restored(self) -> None:
        # A gate sweeps only its last region: widen every rank's to the
        # whole block.  Ghosts are re-sent at the start of every step.
        for gate in self.active:
            gate.reset()

    def exchange(self, phase, ctx):
        if phase.name in ("tiebreak_exchange", "result_exchange"):
            # The RPC waves of the two-wave tiebreak: payloads were
            # enqueued by the preceding kernel phase; progress delivers.
            self.runtime.progress()
            return None
        fields = tuple(
            f for fs in phase.exchanges if fs.scope == "state" for f in fs.fields
        )
        if not fields:
            return False
        self._send_boundary_wave(fields)

    def step_record(self, ctx) -> dict:
        rt = self.runtime
        comm = rt.comm.delta(rt.comm.snapshot(), self._comm_before)
        if self.tracer:
            self.tracer.counter(
                "halo_bytes", comm.get("rpc_bytes", 0), cat="comm",
                step=ctx.step,
            )
            self.tracer.counter(
                "rpcs", comm.get("rpcs", 0), cat="comm", step=ctx.step
            )
            self.tracer.gauge(
                "active_voxels", sum(self._active_counts), cat="gating",
                step=ctx.step, per_rank=list(self._active_counts),
            )
        return {
            "active_per_rank": list(self._active_counts),
            "comm": comm,
        }

    # -- kernel phases -----------------------------------------------------------

    def phase_age_extravasate(self, ctx) -> None:
        """Refresh active regions, age, extravasate (all rank-local)."""

        def fn(rc):
            r = rc.rank
            self.active[r].sweep()
            self._active_counts.append(self.active[r].count)
            region = self.active[r].region()
            if region is not None:
                kernels.tcell_age(self.blocks[r], region)
                # Attempts only succeed where signal >= min_chemokine,
                # which the freshly-refreshed region covers — restricting
                # the gid lookup is bitwise-invisible.
                self._extr_local[r] = kernels.apply_extravasation(
                    self.params, self.blocks[r], ctx.attempts, region
                )

        self.runtime.phase(fn, progress=False)

    def phase_intents(self, ctx) -> None:
        """Intents + intent RPCs (tiebreak wave 1) — delivery happens at
        the following ``tiebreak_exchange`` barrier."""

        def fn(rc):
            r = rc.rank
            block = self.blocks[r]
            intents = self.intents[r]
            region = self.active[r].region()
            # An idle rank passes () so only the previous step's slab is
            # wiped — full-interior readers must never see stale intents.
            intents.clear(region if region is not None else ())
            if region is not None:
                kernels.tcell_intents(
                    self.params, self.rng, ctx.step, block, intents, region
                )
                self._pending_moves[r] = self._extract_remote_intents(
                    r, kind="move", region=region
                )
                self._pending_binds[r] = self._extract_remote_intents(
                    r, kind="bind", region=region
                )
            else:
                empty = {"src_gid": np.array([], dtype=np.int64)}
                self._pending_moves[r] = empty
                self._pending_binds[r] = dict(empty)

        self.runtime.phase(fn, progress=False)

    def phase_resolve(self, ctx) -> None:
        """Merge remote bids, resolve all competition, apply arrivals,
        enqueue result RPCs (tiebreak wave 2)."""

        def fn(rc):
            r = rc.rank
            block = self.blocks[r]
            intents = self.intents[r]
            region = self.active[r].region()
            self._merge_remote_bids(r)
            if region is not None:
                self._moves_local[r] += kernels.resolve_moves(
                    block, intents, region
                )
                self._binds_local[r] += kernels.resolve_binds(
                    self.params, self.rng, ctx.step, block, intents, region
                )
            self._moves_local[r] += self._apply_remote_moves(rc)
            self._apply_remote_binds(rc)

        self.runtime.phase(fn, progress=False)

    def phase_apply_results(self, ctx) -> None:
        """Source side of tiebreak wave 2."""

        def fn(rc):
            self._apply_results(
                rc.rank, self._pending_moves[rc.rank], self._pending_binds[rc.rank]
            )

        self.runtime.phase(fn, progress=False)

    def phase_epithelial(self, ctx) -> None:
        def fn(rc):
            r = rc.rank
            region = self.active[r].region()
            if region is not None:
                kernels.epithelial_update(
                    self.params, self.rng, ctx.step, self.blocks[r], region
                )
                kernels.production_update(
                    self.params, self.blocks[r], region, step=ctx.step
                )

        self.runtime.phase(fn, progress=False)

    def phase_diffuse(self, ctx) -> None:
        def fn(rc):
            r = rc.rank
            block = self.blocks[r]
            region = self.active[r].region()
            if region is None:
                return
            kernels.mirror_fields(block)
            sv, sc = self._scratch[r]
            kernels.concentration_update(self.params, block, region, sv, sc)
            kernels.concentration_commit(
                self.params, block, [region], sv, sc, step=ctx.step
            )

        self.runtime.phase(fn, progress=False)

    def phase_reduce(self, ctx) -> None:
        """Tree allreduce of statistics + per-step totals."""
        rt = self.runtime
        vectors = [
            np.concatenate(
                [
                    stats_vector(self.blocks[r]),
                    [
                        self._extr_local[r],
                        self._binds_local[r],
                        self._moves_local[r],
                    ],
                ]
            )
            for r in range(rt.nranks)
        ]
        reduced = rt.allreduce(vectors, ReduceOp.SUM)
        n = len(REDUCED_FIELDS)
        ctx.reduced = reduced[:n]
        ctx.extravasations = int(reduced[n])
        ctx.binds = int(reduced[n + 1])
        ctx.moves = int(reduced[n + 2])

    # -- tiebreak plumbing ----------------------------------------------------------

    def _extract_remote_intents(
        self, rank: int, kind: str, region: tuple[slice, ...] | None = None
    ) -> dict:
        """Find owned T cells targeting ghost voxels; ship them to owners and
        withhold them from local resolution.  Returns the pending record.

        ``region`` restricts the scan to this step's active box (intents
        are only ever written inside it); ``None`` scans the interior.
        """
        block = self.blocks[rank]
        intents = self.intents[rank]
        if region is None:
            region = block.interior
        g = block.ghost
        # Owned-relative coordinate of the scanned window's [0, 0, ...].
        window_lo = np.array([s.start - g for s in region])
        if kind == "move":
            dirs = intents.move_dir[region]
            stencil = moore_offsets(self.spec.ndim)
            base = 0
        else:
            dirs = intents.bind_dir[region]
            stencil = kernels.bind_stencil(self.spec.ndim)
            base = 0
        owned_box = block.owned
        src_list, tgt_list, bid_list, life_list = [], [], [], []
        pend_local = []
        for k, off in enumerate(stencil):
            mask = dirs == (k + base)
            if not mask.any():
                continue
            src_local = np.argwhere(mask) + window_lo  # owned-relative coords
            src_global = src_local + np.array(owned_box.lo)
            tgt_global = src_global + off
            outside = ~owned_box.contains(tgt_global)
            if not outside.any():
                continue
            src_g = src_global[outside]
            tgt_g = tgt_global[outside]
            src_pad = tuple((src_g - np.array(block.origin)).T)
            src_list.append(self.spec.ravel(src_g))
            tgt_list.append(self.spec.ravel(tgt_g))
            bid_list.append(intents.bid_self[src_pad])
            if kind == "move":
                life_list.append(block.tcell_tissue_time[src_pad])
            pend_local.append(src_pad)
            # Withhold from local resolution.
            if kind == "move":
                intents.move_dir[src_pad] = -1
            else:
                intents.bind_dir[src_pad] = -1
        if not src_list:
            return {"src_gid": np.array([], dtype=np.int64)}
        src_gid = np.concatenate(src_list)
        tgt_gid = np.concatenate(tgt_list)
        bid = np.concatenate(bid_list)
        owners = self.decomp.owner_of(self.spec.unravel(tgt_gid))
        life = np.concatenate(life_list) if kind == "move" else None
        for dst in np.unique(owners):
            sel = owners == dst
            payload = {
                "src_gid": src_gid[sel],
                "tgt_gid": tgt_gid[sel],
                "bid": bid[sel],
            }
            if kind == "move":
                payload["life"] = life[sel]
                self.runtime.ranks[rank].rpc(
                    int(dst), "recv_move_intents", **payload
                )
            else:
                self.runtime.ranks[rank].rpc(
                    int(dst), "recv_bind_intents", **payload
                )
        return {"src_gid": src_gid, "bid": bid, "kind": kind}

    def _merge_remote_bids(self, rank: int) -> None:
        """Max-merge buffered remote bids into this rank's bid arrays."""
        intents = self.intents[rank]
        for rec in self._incoming_moves[rank]:
            idx, _ = self._locate(rank, rec["tgt_gid"])
            arr = intents.move_bid
            np.maximum.at(arr, idx, rec["bid"])
        for rec in self._incoming_binds[rank]:
            idx, _ = self._locate(rank, rec["tgt_gid"])
            np.maximum.at(intents.bind_bid, idx, rec["bid"])

    def _apply_remote_moves(self, rc) -> int:
        """Instantiate remote movers that won bids on owned voxels; notify
        their source ranks (tiebreak wave 2)."""
        r = rc.rank
        block = self.blocks[r]
        intents = self.intents[r]
        arrivals = 0
        winners_by_src: dict[int, list[int]] = {}
        for rec in self._incoming_moves[r]:
            idx, _ = self._locate(r, rec["tgt_gid"])
            won = intents.move_bid[idx] == rec["bid"]
            for i in np.nonzero(won)[0]:
                cell = tuple(int(x[i]) for x in idx)
                block.tcell[cell] = 1
                block.tcell_tissue_time[cell] = rec["life"][i]
                block.tcell_bound_time[cell] = 0
                arrivals += 1
                winners_by_src.setdefault(rec["src_rank"], []).append(
                    int(rec["src_gid"][i])
                )
        self._incoming_moves[r] = []
        for src_rank, gids in winners_by_src.items():
            rc.rpc(
                src_rank,
                "recv_move_results",
                won_src_gid=np.array(gids, dtype=np.int64),
            )
        return arrivals

    def _apply_remote_binds(self, rc) -> None:
        """Apply remote bind winners to owned epithelial cells; notify the
        winning T cells' owners."""
        r = rc.rank
        intents = self.intents[r]
        winners_by_src: dict[int, list[int]] = {}
        for rec in self._incoming_binds[r]:
            idx, _ = self._locate(r, rec["tgt_gid"])
            won = intents.bind_bid[idx] == rec["bid"]
            for i in np.nonzero(won)[0]:
                winners_by_src.setdefault(rec["src_rank"], []).append(
                    int(rec["src_gid"][i])
                )
        self._incoming_binds[r] = []
        for src_rank, gids in winners_by_src.items():
            rc.rpc(
                src_rank,
                "recv_bind_results",
                won_src_gid=np.array(gids, dtype=np.int64),
            )

    def _apply_results(self, rank: int, pending_moves, pending_binds) -> None:
        """Source side of tiebreak wave 2: erase movers that won a ghost
        voxel; hold binders that won a ghost epithelial cell."""
        block = self.blocks[rank]
        for gids in self._won_moves[rank]:
            idx, _ = self._locate(rank, gids)
            block.tcell[idx] = 0
            block.tcell_tissue_time[idx] = 0
            block.tcell_bound_time[idx] = 0
        self._won_moves[rank] = []
        for gids in self._won_binds[rank]:
            idx, _ = self._locate(rank, gids)
            block.tcell_bound_time[idx] = self.params.tcell_binding_period
        self._won_binds[rank] = []

    # -- inspection ----------------------------------------------------------

    def gather_epi_state(self) -> np.ndarray:
        """Assembled global epithelial state (test/IO helper)."""
        return self.exchanger.gather_global([b.epi_state for b in self.blocks])

    def gather_field(self, name: str) -> np.ndarray:
        return self.exchanger.gather_global(
            [getattr(b, name) for b in self.blocks]
        )
