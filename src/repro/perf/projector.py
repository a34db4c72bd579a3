"""Analytic evaluation of scaling-experiment configurations.

Given an activity provider (a recorded :class:`WorkloadTrace` or a
synthesized :class:`DiskActivityModel`) and a machine model, the projector
computes the modeled runtime of SIMCoV-CPU at R ranks or SIMCoV-GPU at G
devices — reproducing what the paper measured on Perlmutter for Figs 6-8.

The projector prices exactly the operations the two implementations
issue (tests cross-check it against their counted work): per-step kernel/wave
structure, per-rank work from the activity map apportioned to the block
decomposition (load imbalance included — bulk-synchronous steps wait for
the busiest rank), halo strips by neighbor locality, and log-depth
collectives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.grid.decomposition import Decomposition, _split_extent
from repro.grid.spec import GridSpec
from repro.perf.machine import CORES_PER_NODE, GPUS_PER_NODE, MachineModel
from repro.perf.ledger import GpuVariant

_NS = 1e-9
_US = 1e-6
_GB = 1e9

#: Update-kernel passes over the active set per step (age, intents,
#: assign-winners, move+bind, epithelial+production, diffusion).
GPU_UPDATE_PASSES = 6
#: Kernel launches per device per step (update passes + extravasation +
#: reduction kernel).
GPU_LAUNCHES_PER_STEP = GPU_UPDATE_PASSES + 2
#: Per-field halo exchanges per step: wave A (4 state fields) + wave B
#: (5 intent/bid fields) + wave C (2 concentration fields).
GPU_EXCHANGES_PER_STEP = 11
#: Halo payload bytes per boundary voxel per step, summed over waves
#: (A: int8+int8+int32+int32 = 10; B: 2*int8 + 3*uint64 = 26; C: 2*f64 = 16).
GPU_HALO_BYTES_PER_VOXEL = 52
#: Cross-device scalar reductions per step (8 stats + 3 counters).
GPU_REDUCTIONS_PER_STEP = 11
#: Reduced statistic fields swept by the reduction kernel.
STAT_FIELDS = 8

#: CPU boundary-RPC waves per step (open, occupancy, fields).
CPU_WAVES_PER_STEP = 3
#: Strip payload bytes per boundary voxel per step, summed over waves
#: (open: 1+8+8+1 = 18; occupancy: 1; fields: 16).
CPU_HALO_BYTES_PER_VOXEL = 35
#: Extra tiebreak RPCs per rank per step (intent + result, both ways).
CPU_TIEBREAK_RPCS = 4


@dataclass(frozen=True)
class ProjectedRuntime:
    """Modeled runtime of one configuration, with its breakdown."""

    total_seconds: float
    compute_seconds: float
    reduce_seconds: float
    comm_seconds: float
    coord_seconds: float = 0.0
    sweep_seconds: float = 0.0
    launch_seconds: float = 0.0


class _Apportioner:
    """Distributes supercell activity counts onto a block decomposition."""

    def __init__(self, dim, supergrid: int, decomp: Decomposition):
        self.decomp = decomp
        px, py = decomp.proc_grid
        self._wx = self._axis_weights(dim[0], supergrid, px)
        self._wy = self._axis_weights(dim[1], supergrid, py)

    @staticmethod
    def _axis_weights(extent: int, supergrid: int, parts: int) -> np.ndarray:
        """(parts, supergrid) matrix: fraction of each supercell's axis
        extent owned by each part."""
        cell = extent / supergrid
        edges = np.arange(supergrid + 1) * cell
        w = np.zeros((parts, supergrid))
        for i, (lo, hi) in enumerate(_split_extent(extent, parts)):
            overlap = np.clip(
                np.minimum(hi, edges[1:]) - np.maximum(lo, edges[:-1]), 0, None
            )
            w[i] = overlap / cell
        return w

    def per_rank(self, counts: np.ndarray) -> np.ndarray:
        """Active voxels per rank, shape proc_grid."""
        return self._wx @ counts @ self._wy.T


def _neighbor_stats(decomp: Decomposition, per_node: int):
    """Per-rank neighbor counts split by locality, plus perimeters.

    Uses process-grid adjacency (equivalent to box adjacency for block
    decompositions, O(ranks) instead of O(ranks^2))."""
    n_intra = np.zeros(decomp.nranks)
    n_inter = np.zeros(decomp.nranks)
    perim = np.zeros(decomp.nranks)
    grid = decomp.proc_grid
    ndim = len(grid)
    import itertools

    offsets = [o for o in itertools.product((-1, 0, 1), repeat=ndim) if any(o)]
    for r in range(decomp.nranks):
        coords = decomp.rank_coords(r)
        node_r = r // per_node
        for off in offsets:
            nb = tuple(c + o for c, o in zip(coords, off))
            if any(c < 0 or c >= g for c, g in zip(nb, grid)):
                continue
            o_rank = int(np.ravel_multi_index(nb, grid))
            if o_rank // per_node == node_r:
                n_intra[r] += 1
            else:
                n_inter[r] += 1
        perim[r] = decomp.halo_surface_voxels(r)
    return n_intra, n_inter, perim


def project_cpu_runtime(
    machine: MachineModel,
    provider,
    nranks: int,
    ranks_per_node: int = CORES_PER_NODE,
    imbalance_alpha: float = 0.02,
) -> ProjectedRuntime:
    """Modeled SIMCoV-CPU runtime at ``nranks`` over the provider's run.

    ``imbalance_alpha`` blends max-rank and mean-rank work per step:
    UPC++'s asynchronous RPC delivery lets ranks drift within a step
    window, so the effective per-step cost sits between the strict
    bulk-synchronous maximum (alpha=1) and perfect overlap (alpha=0).
    """
    spec = GridSpec(provider.dim)
    decomp = Decomposition.blocks(spec, nranks)
    app = _Apportioner(provider.dim, provider.supergrid
                       if hasattr(provider, "supergrid") else provider.counts_at(0).shape[0],
                       decomp)
    n_intra, n_inter, perim = _neighbor_stats(decomp, ranks_per_node)
    # Per-step communication time per rank (strips are sent every step).
    msgs = CPU_WAVES_PER_STEP * (n_intra + n_inter) + CPU_TIEBREAK_RPCS
    comm_per_step = (
        msgs * machine.cpu_rpc_us * _US
        + CPU_WAVES_PER_STEP * n_inter * machine.cpu_rpc_internode_us * _US
        + perim * CPU_HALO_BYTES_PER_VOXEL / (machine.cpu_bw_GBps * _GB)
    ).max()
    rounds = math.ceil(math.log2(nranks)) if nranks > 1 else 0
    reduce_per_step = rounds * machine.cpu_allreduce_round_us * _US

    compute = 0.0
    steps = 0
    for i in range(provider.num_samples):
        w = provider.sample_weight(i)
        per_rank = app.per_rank(provider.counts_at(i))
        effective = (
            imbalance_alpha * per_rank.max()
            + (1.0 - imbalance_alpha) * per_rank.mean()
        )
        compute += w * effective * machine.cpu_voxel_ns * _NS
        steps += w
    comm = comm_per_step * steps
    reduce = reduce_per_step * steps
    return ProjectedRuntime(
        total_seconds=compute + comm + reduce,
        compute_seconds=compute,
        reduce_seconds=reduce,
        comm_seconds=comm,
    )


def project_gpu_runtime(
    machine: MachineModel,
    provider,
    num_devices: int,
    variant: GpuVariant = GpuVariant.COMBINED,
    gpus_per_node: int = GPUS_PER_NODE,
    tile_side: int = 8,
    tile_inflation: float = 1.75,
    imbalance_alpha: float = 0.6,
) -> ProjectedRuntime:
    """Modeled SIMCoV-GPU runtime at ``num_devices`` over the provider's run.

    ``tile_inflation`` converts exactly-active voxels into active-*tile*
    voxels (dilation buffer + tile quantization); the default is the ratio
    observed in the counted work of tiled runs.
    """
    spec = GridSpec(provider.dim)
    decomp = Decomposition.blocks(spec, num_devices)
    supergrid = (provider.supergrid
                 if hasattr(provider, "supergrid") else provider.counts_at(0).shape[0])
    app = _Apportioner(provider.dim, supergrid, decomp)
    n_intra, n_inter, perim = _neighbor_stats(decomp, gpus_per_node)
    owned = np.array([b.size for b in decomp.boxes], dtype=np.float64)
    owned_per_dev = owned.reshape(decomp.proc_grid)

    # Fixed per-step costs.
    launch_per_step = GPU_LAUNCHES_PER_STEP * machine.gpu_launch_us * _US
    comm_per_step = (
        GPU_EXCHANGES_PER_STEP
        * (n_intra * machine.gpu_copy_lat_intra_us
           + n_inter * machine.gpu_copy_lat_inter_us) * _US
        + perim * GPU_HALO_BYTES_PER_VOXEL * (
            (n_intra > 0) / (machine.gpu_copy_bw_intra_GBps * _GB)
        )
        + perim * GPU_HALO_BYTES_PER_VOXEL * (
            (n_inter > 0) / (machine.gpu_copy_bw_inter_GBps * _GB)
        )
    ).max()
    rounds = math.ceil(math.log2(num_devices)) if num_devices > 1 else 0
    coord_per_step = GPU_REDUCTIONS_PER_STEP * (
        machine.gpu_coord_us + rounds * machine.gpu_net_round_us
    ) * _US
    locality = machine.gpu_tiling_locality if variant.use_tiling else 1.0
    max_owned = owned.max()
    if variant.use_tree_reduction:
        reduce_per_step = (
            STAT_FIELDS * max_owned * machine.gpu_reduce_elem_ns * locality * _NS
        )
    else:
        reduce_per_step = STAT_FIELDS * max_owned * (
            machine.gpu_atomic_ns + machine.gpu_atomic_conflict_ns
        ) * _NS
    sweep_per_step = (
        max_owned * machine.gpu_sweep_voxel_ns / max(1, tile_side) * _NS
        if variant.use_tiling
        else 0.0
    )

    compute = 0.0
    steps = 0
    boundary_voxels = perim.reshape(decomp.proc_grid) * tile_side
    for i in range(provider.num_samples):
        w = provider.sample_weight(i)
        per_dev = app.per_rank(provider.counts_at(i))
        if variant.use_tiling:
            processed = np.minimum(
                owned_per_dev, per_dev * tile_inflation + boundary_voxels
            )
        else:
            processed = owned_per_dev
        effective = (
            imbalance_alpha * processed.max()
            + (1.0 - imbalance_alpha) * processed.mean()
        )
        compute += (
            w
            * effective
            * GPU_UPDATE_PASSES
            * machine.gpu_voxel_ns
            * locality
            * _NS
        )
        steps += w
    return ProjectedRuntime(
        total_seconds=compute
        + steps * (launch_per_step + comm_per_step + coord_per_step
                   + reduce_per_step + sweep_per_step),
        compute_seconds=compute,
        reduce_seconds=steps * reduce_per_step,
        comm_seconds=steps * comm_per_step,
        coord_seconds=steps * coord_per_step,
        sweep_seconds=steps * sweep_per_step,
        launch_seconds=steps * launch_per_step,
    )
