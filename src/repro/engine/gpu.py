"""The GPU-cluster execution backend (SIMCoV-GPU substrate).

Wraps :class:`~repro.gpusim.cluster.GpuCluster`, tile activation and the
single-wave bid-max tiebreak (§3.1, Fig 2) behind the engine protocol:

- ``boundary_exchange`` maps to halo wave A (boundary state + T-cell
  payload, REPLACE);
- ``tiebreak_exchange`` maps to halo wave B — intent fields REPLACE, bid
  fields MAX-merged — the paper's single communication round;
- ``concentration_exchange`` maps to halo wave C;
- kernel phases launch over the active tiles of every device, with work
  recorded to the device ledgers, and ``tile_sweep`` runs the periodic
  §3.2 activation sweep.

The Fig 4 optimization variants (:class:`~repro.simcov_gpu.variants.GpuVariant`)
select tiling and the reduction scheme.
"""

from __future__ import annotations

import numpy as np

from repro.core import kernels
from repro.core.params import SimCovParams
from repro.core.state import EpiState, VoxelBlock
from repro.core.stats import REDUCED_FIELDS
from repro.engine.backend import ExecutionBackend
from repro.engine.phases import FieldSet, Phase, exchange, kernel
from repro.grid.decomposition import Decomposition, DecompositionKind
from repro.grid.halo import HaloExchanger, MergeMode
from repro.grid.tiling import TileGrid
from repro.gpusim.cluster import GpuCluster
from repro.gpusim.ledger import KernelCategory
from repro.gpusim.reduction import atomic_reduce, tree_reduce_device
from repro.simcov_gpu.variants import GpuVariant

#: Halo wave A fields (boundary state; payload rides along so arrivals can
#: be instantiated from ghost copies).
_WAVE_A = ("epi_state", "tcell", "tcell_tissue_time", "tcell_bound_time")
#: Halo wave C fields (post-production concentrations).
_WAVE_C = ("virions", "chemokine")


class GpuClusterBackend(ExecutionBackend):
    """Device-parallel SIMCoV on the GPU cluster simulator.

    Parameters
    ----------
    params, seed:
        As for the other backends; identical seeds give bitwise identical
        simulations.
    num_devices:
        GPUs (Perlmutter packs 4 per node).
    variant:
        Optimization prototype (Fig 4); default COMBINED.
    tile_shape:
        Memory-tile extents (§3.2); must be at most the per-device
        subdomain.  Default 8 per dimension.
    sweep_period:
        Steps between tile-activation sweeps; default (and maximum sound
        value) is the smallest tile side.
    """

    name = "gpu_cluster"

    def __init__(
        self,
        params: SimCovParams,
        num_devices: int,
        seed: int = 0,
        variant: GpuVariant = GpuVariant.COMBINED,
        gpus_per_node: int = 4,
        tile_shape: tuple[int, ...] | None = None,
        sweep_period: int | None = None,
        decomposition: DecompositionKind = DecompositionKind.BLOCK,
        seed_gids: np.ndarray | None = None,
        structure_gids: np.ndarray | None = None,
        capacity_bytes: int | None = None,
    ):
        self._init_common(params, seed)
        self.variant = variant
        self.decomp = Decomposition.make(self.spec, num_devices, decomposition)
        from repro.gpusim.device import A100_BYTES

        self.cluster = GpuCluster(
            num_devices,
            gpus_per_node=gpus_per_node,
            capacity_bytes=capacity_bytes or A100_BYTES,
        )
        self.exchanger = HaloExchanger(
            self.decomp, on_message=self.cluster.halo_message_hook()
        )
        self.blocks = [
            VoxelBlock(self.spec, self.decomp.boxes[d]) for d in range(num_devices)
        ]
        self.intents = [kernels.IntentArrays(b.shape) for b in self.blocks]
        self._scratch = [
            (np.zeros_like(b.virions), np.zeros_like(b.chemokine))
            for b in self.blocks
        ]
        # Register every buffer against the device's memory capacity — the
        # §4.2 sizing constraint ("approximately the number of voxels that
        # fit into the A100s' available memory") enforced for real.
        for d, (block, intents, scratch) in enumerate(
            zip(self.blocks, self.intents, self._scratch)
        ):
            device = self.cluster.devices[d]
            for name in VoxelBlock.STATE_FIELDS + ("epi_timer", "gid"):
                device.adopt(name, getattr(block, name))
            for name in (
                kernels.IntentArrays.REPLACE_FIELDS
                + kernels.IntentArrays.MAX_FIELDS
            ):
                device.adopt(f"intent_{name}", getattr(intents, name))
            device.adopt("scratch_virions", scratch[0])
            device.adopt("scratch_chemokine", scratch[1])
        if tile_shape is None:
            tile_shape = tuple(
                min(8, s) for s in self.decomp.boxes[0].shape
            )
        domain = self.spec.domain
        self.tiles = []
        for d in range(num_devices):
            box = self.decomp.boxes[d]
            # Only sides facing another device carry ghost traffic and need
            # their tile shell pinned (§3.2).
            pin = [
                (box.lo[a] > domain.lo[a], box.hi[a] < domain.hi[a])
                for a in range(self.spec.ndim)
            ]
            self.tiles.append(
                TileGrid(
                    box.shape,
                    tuple(min(t, s) for t, s in zip(tile_shape, box.shape)),
                    ghost=1,
                    pin_sides=pin,
                )
            )
        if variant.use_tiling:
            max_period = min(tg.max_sweep_period() for tg in self.tiles)
            self.sweep_period = (
                min(sweep_period, max_period) if sweep_period else max_period
            )
        else:
            # No tiling: every tile is permanently active, no sweeps.
            for tg in self.tiles:
                tg.activate_all()
            self.sweep_period = 0
        self._seed_blocks(self.blocks, seed_gids, structure_gids)
        # Per-step scratch (reset by begin_step).
        self._extr_local: list[int] = []
        self._moves_local: list[int] = []
        self._binds_local: list[int] = []
        self._ledger_before = None

    # -- schedule ------------------------------------------------------------

    def schedule(self) -> tuple[Phase, ...]:
        """Halo waves A/B/C + the single-wave bid-max tiebreak (Fig 2)."""
        return (
            exchange("open_exchange", doc="no-op: ghosts refresh in wave A"),
            kernel("age_extravasate"),
            exchange(
                "boundary_exchange",
                FieldSet("state", _WAVE_A, MergeMode.REPLACE),
                doc="halo wave A: boundary state + T-cell payload",
            ),
            kernel("intents", doc="choose-direction/bid kernels"),
            exchange(
                "tiebreak_exchange",
                FieldSet(
                    "intent", kernels.IntentArrays.REPLACE_FIELDS,
                    MergeMode.REPLACE,
                ),
                FieldSet(
                    "intent", kernels.IntentArrays.MAX_FIELDS, MergeMode.MAX
                ),
                doc="halo wave B: the single tiebreak exchange of §3.1",
            ),
            kernel("resolve", doc="assign winners + move/bind kernels"),
            exchange("result_exchange", doc="no-op: single-wave tiebreak"),
            kernel("apply_results", doc="no-op: winners resolved locally"),
            kernel("epithelial"),
            exchange(
                "concentration_exchange",
                FieldSet("state", _WAVE_C, MergeMode.REPLACE),
                doc="halo wave C: concentrations",
            ),
            kernel("diffuse"),
            kernel("reduce", doc="per-device reduction + cross-device reduce"),
            kernel("tile_sweep", doc="periodic tile-activation sweep (§3.2)"),
        )

    # -- tiled kernel launching --------------------------------------------------

    def _regions(self, d: int) -> list[tuple[slice, ...]]:
        """Padded-array regions of device ``d``'s active tiles."""
        g = self.blocks[d].ghost
        return [
            tuple(slice(s.start + g, s.stop + g) for s in sl)
            for sl in self.tiles[d].active_tile_slices()
        ]

    def _active_voxels(self, d: int) -> int:
        return self.tiles[d].active_voxel_count()

    def _launch_tiled(self, d: int, category: KernelCategory, fn) -> None:
        """One kernel launch covering the active tiles of device ``d``.

        The real code launches a single grid over the active-tile list; we
        run ``fn(region)`` per tile but count one launch with the active
        voxel total.
        """
        device = self.cluster.devices[d]

        def body():
            for region in self._regions(d):
                fn(region)

        device.launch(category, self._active_voxels(d), body)

    # -- engine protocol ---------------------------------------------------------

    def begin_step(self, ctx) -> None:
        nd = self.cluster.num_devices
        self._ledger_before = self.cluster.ledger.snapshot()
        self._extr_local = [0] * nd
        self._moves_local = [0] * nd
        self._binds_local = [0] * nd

    def exchange(self, phase, ctx):
        if not phase.exchanges:
            return False
        for fs in phase.exchanges:
            holders = self.blocks if fs.scope == "state" else self.intents
            for name in fs.fields:
                self.exchanger.exchange(
                    [getattr(h, name) for h in holders], fs.merge
                )

    def step_record(self, ctx) -> dict:
        active = [
            self._active_voxels(d) for d in range(self.cluster.num_devices)
        ]
        if self.tracer:
            self.tracer.gauge(
                "active_voxels", sum(active), cat="gating", step=ctx.step,
                per_device=active, tiling=self.variant.use_tiling,
            )
        return {
            "active_per_device": active,
            "ledger": self.cluster.ledger.minus(self._ledger_before),
        }

    # -- kernel phases -----------------------------------------------------------

    def phase_age_extravasate(self, ctx) -> None:
        p = self.params
        for d in range(self.cluster.num_devices):
            self._launch_tiled(
                d, KernelCategory.UPDATE_AGENTS,
                lambda region, d=d: kernels.tcell_age(self.blocks[d], region),
            )
            device = self.cluster.devices[d]
            self._extr_local[d] = device.launch(
                KernelCategory.UPDATE_AGENTS,
                ctx.attempts["gid"].size,
                lambda d=d: kernels.apply_extravasation(
                    p, self.blocks[d], ctx.attempts
                ),
            )

    def phase_intents(self, ctx) -> None:
        p = self.params
        for d in range(self.cluster.num_devices):
            self.intents[d].clear()
            self._launch_tiled(
                d, KernelCategory.UPDATE_AGENTS,
                lambda region, d=d: kernels.tcell_intents(
                    p, self.rng, ctx.step, self.blocks[d], self.intents[d],
                    region,
                ),
            )

    def phase_resolve(self, ctx) -> None:
        """Assign winners ("set flips"), then move agents (Fig 2).

        Two separate launches so every tile's winners are computed against
        pristine state before any tile commits — on hardware, the kernel
        boundary is the synchronization point.
        """
        p = self.params
        for d in range(self.cluster.num_devices):
            movesets: list[kernels.MoveSet] = []
            self._launch_tiled(
                d, KernelCategory.UPDATE_AGENTS,
                lambda region, d=d, ms=movesets: ms.append(
                    kernels.compute_moves(self.blocks[d], self.intents[d], region)
                ),
            )

            def move_and_bind(region, d=d, ms=movesets):
                for m in ms:
                    if m.region == region:
                        self._moves_local[d] += kernels.commit_moves(
                            self.blocks[d], m
                        )
                self._binds_local[d] += kernels.resolve_binds(
                    p, self.rng, ctx.step, self.blocks[d], self.intents[d],
                    region,
                )

            self._launch_tiled(d, KernelCategory.UPDATE_AGENTS, move_and_bind)

    def phase_epithelial(self, ctx) -> None:
        p = self.params
        for d in range(self.cluster.num_devices):
            def epi(region, d=d):
                kernels.epithelial_update(
                    p, self.rng, ctx.step, self.blocks[d], region
                )
                kernels.production_update(p, self.blocks[d], region, step=ctx.step)

            self._launch_tiled(d, KernelCategory.UPDATE_AGENTS, epi)

    def phase_diffuse(self, ctx) -> None:
        p = self.params
        for d in range(self.cluster.num_devices):
            kernels.mirror_fields(self.blocks[d])
            sv, sc = self._scratch[d]
            regions = self._regions(d)

            def diffuse(region, d=d, sv=sv, sc=sc):
                kernels.concentration_update(p, self.blocks[d], region, sv, sc)

            self._launch_tiled(d, KernelCategory.UPDATE_AGENTS, diffuse)
            kernels.concentration_commit(
                p, self.blocks[d], regions, sv, sc, step=ctx.step
            )

    def phase_reduce(self, ctx) -> None:
        """Per-device reduction (atomics or tree, per variant), then
        cross-device reduce."""
        nd = self.cluster.num_devices
        partials = [self._device_stats(d) for d in range(nd)]
        reduced = np.zeros(len(REDUCED_FIELDS), dtype=np.float64)
        for i in range(len(REDUCED_FIELDS)):
            reduced[i] = self.cluster.reduce_scalar([v[i] for v in partials])
        ctx.reduced = reduced
        ctx.extravasations = int(
            self.cluster.reduce_scalar([float(e) for e in self._extr_local])
        )
        ctx.binds = int(
            self.cluster.reduce_scalar([float(b) for b in self._binds_local])
        )
        ctx.moves = int(
            self.cluster.reduce_scalar([float(m) for m in self._moves_local])
        )

    def phase_tile_sweep(self, ctx):
        """Periodic tile-activation sweep (§3.2).  Boundary tiles are pinned
        and buffered inside TileGrid.sweep, so activity arriving from
        neighbor devices is always covered."""
        if not self.variant.use_tiling:
            return False
        if (ctx.step + 1) % self.sweep_period != 0:
            return False
        p = self.params
        for d in range(self.cluster.num_devices):
            device = self.cluster.devices[d]
            block = self.blocks[d]
            device.launch(
                KernelCategory.TILE_SWEEP,
                block.owned.size,
                lambda d=d, block=block: self.tiles[d].sweep(
                    block.activity_mask_padded(p.min_chemokine), padded=True
                ),
            )

    def state_restored(self) -> None:
        # Like a fresh cluster: every tile active until the next sweep.
        for tg in self.tiles:
            tg.activate_all()

    # -- statistics ------------------------------------------------------------------

    def _device_stats(self, d: int) -> np.ndarray:
        """One device's stats partials, via the variant's reduction scheme.

        Both schemes sweep *every* owned voxel (§3.3: reducing over the full
        space beats scattering atomics through the update kernels); they
        differ in how values are accumulated.
        """
        block = self.blocks[d]
        device = self.cluster.devices[d]
        sl = block.interior
        state = block.epi_state[sl]
        fields = [
            (state == EpiState.HEALTHY),
            (state == EpiState.INCUBATING),
            (state == EpiState.EXPRESSING),
            (state == EpiState.APOPTOTIC),
            (state == EpiState.DEAD),
            (block.tcell[sl] != 0),
            block.virions[sl],
            block.chemokine[sl],
        ]
        n = state.size
        out = np.empty(len(fields), dtype=np.float64)

        def body():
            for i, f in enumerate(fields):
                arr = np.asarray(f, dtype=np.float64)
                if self.variant.use_tree_reduction:
                    out[i] = tree_reduce_device(device, arr)
                else:
                    out[i] = atomic_reduce(device, arr)

        device.launch(
            KernelCategory.REDUCE_STATS, n * len(fields), body, bytes_per_voxel=8
        )
        return out

    # -- inspection ------------------------------------------------------------------

    def gather_field(self, name: str) -> np.ndarray:
        return self.exchanger.gather_global(
            [getattr(b, name) for b in self.blocks]
        )

    def active_fraction(self) -> float:
        total = sum(b.owned.size for b in self.blocks)
        active = sum(self._active_voxels(d) for d in range(len(self.blocks)))
        return active / total
