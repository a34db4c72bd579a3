"""Counted work as a pure function of one single-block trace.

SIMCoV-CPU and SIMCoV-GPU compute the sequential trace bit for bit (all
randomness is keyed by global voxel id), so what they *execute* needs no
second run.  What they *count* — launches, active-tile voxels, atomics,
halo and RPC traffic — follows from that trace plus the decomposition:

- :func:`gpu_step_work` replays the §3.2 tile protocol per device
  (:class:`~repro.grid.tiling.TileGrid` with the same pinned sides) over
  the masks a device sees at each sweep, and prices halo waves A/B/C by
  the :class:`~repro.grid.halo.HaloExchanger` route geometry;
- :func:`cpu_step_work` replays the per-rank active lists of §2.2 and
  counts the boundary-strip RPC waves plus the two-wave tiebreak's intent
  and result RPCs from the trace's cross-owner intents.

Both return one record per step, the shape :mod:`repro.perf.costs` prices.
"""

from __future__ import annotations

import numpy as np

from repro.core.kernels import IntentArrays
from repro.core.state import VoxelBlock
from repro.core.stats import REDUCED_FIELDS
from repro.grid.decomposition import Decomposition
from repro.grid.halo import HaloExchanger
from repro.grid.tiling import TileGrid, _dilate
from repro.perf.ledger import GpuVariant, KernelCategory, WorkLedger
from repro.perf.workload import WorkloadTrace

#: Threads per block of SIMCoV-GPU's reduction kernels.
REDUCE_BLOCK_SIZE = 256
#: Update-kernel launches per device per step: age, extravasation,
#: intents, assign-winners, move+bind, epithelial+production, diffusion.
GPU_UPDATE_LAUNCHES = 7
#: The update launches that cover the active tiles (all but extravasation,
#: which covers the step's attempts).
GPU_TILED_LAUNCHES = 6
#: Halo fields per wave: A (boundary state + T-cell payload), B (the
#: tiebreak: REPLACE intents, MAX-merged bids), C (concentrations).
_WAVE_A = ("epi_state", "tcell", "tcell_tissue_time", "tcell_bound_time")
_WAVE_C = ("virions", "chemokine")
#: SIMCoV-CPU boundary-strip waves: the open wave, the post-extravasation
#: occupancy wave, the concentration wave.
_CPU_WAVES = (
    ("epi_state", "virions", "chemokine", "tcell"),
    ("tcell",),
    _WAVE_C,
)
_ID_BYTES = np.dtype(np.int64).itemsize
_BID_BYTES = np.dtype(IntentArrays.FIELD_DTYPES["bid_self"]).itemsize


def reduction_work(elems: int, tree: bool, block_size: int = REDUCE_BLOCK_SIZE) -> WorkLedger:
    """One statistic reduced over ``elems`` values (§3.3): per-element
    atomics on one accumulator, every op contending; or the shared-memory
    tree of Harris, one atomic per thread block."""
    if block_size <= 0 or block_size & (block_size - 1):
        raise ValueError(f"block_size must be a power of two, got {block_size}")
    if not tree:
        return WorkLedger(atomic_ops=elems, atomic_conflicts=max(0, elems - 1))
    blocks = -(-elems // block_size)
    return WorkLedger(
        reduce_tree_elems=elems, atomic_ops=blocks, atomic_conflicts=max(0, blocks - 1)
    )


def _padded(box) -> tuple[slice, ...]:
    """A block's ghost-padded extent in a domain array padded by one."""
    return tuple(slice(lo, hi + 2) for lo, hi in zip(box.lo, box.hi))


def _owned(box) -> tuple[slice, ...]:
    return tuple(slice(lo, hi) for lo, hi in zip(box.lo, box.hi))


def _mirror_ring(conc: np.ndarray) -> np.ndarray:
    """The domain padded by one, True where a mirrored out-of-domain ghost
    is active: the no-flux mirror copies the nearest in-domain value."""
    ring = np.pad(conc, 1, mode="edge")
    ring[tuple(slice(1, -1) for _ in conc.shape)] = False
    return ring


def gpu_step_work(
    trace: WorkloadTrace,
    decomp: Decomposition,
    variant: GpuVariant = GpuVariant.COMBINED,
    tile_shape: tuple[int, ...] | None = None,
    gpus_per_node: int = 4,
) -> list[dict]:
    """Per step: ``{"ledger": WorkLedger, "active_per_device": [...]}`` of
    SIMCoV-GPU on ``decomp`` over the traced run.

    Tiles start all active and are re-derived at the end of every
    ``sweep_period``-th step from what the device holds then: its owned
    voxels as the step leaves them, in-domain ghosts as halo waves A
    (epithelial state, T cells) and C (concentrations) left them, and
    out-of-domain ghosts as the diffusion's mirror left them.
    """
    boxes = decomp.boxes
    nd, domain = len(boxes), decomp.spec.domain
    if tile_shape is None:
        tile_shape = tuple(min(8, s) for s in boxes[0].shape)
    tiles = [
        TileGrid(
            box.shape,
            tuple(min(t, s) for t, s in zip(tile_shape, box.shape)),
            ghost=1,
            pin_sides=[(lo > dlo, hi < dhi)
                       for lo, hi, dlo, dhi in zip(box.lo, box.hi, domain.lo, domain.hi)],
        )
        for box in boxes
    ]
    period = min(tg.max_sweep_period() for tg in tiles) if variant.use_tiling else 0

    # Fixed per-step work: the reduction sweep (every statistic over every
    # owned voxel, §3.3), its cross-device reduce (the statistics and three
    # step totals) and the three halo waves.
    fields = len(REDUCED_FIELDS)
    reduce = [reduction_work(box.size, variant.use_tree_reduction) for box in boxes]
    fixed = {
        k: fields * sum(getattr(r, k) for r in reduce)
        for k in ("reduce_tree_elems", "atomic_ops", "atomic_conflicts")
    }
    fixed.update(device_reductions=fields + 3, copies_intra=0, copy_bytes_intra=0,
                 copies_inter=0, copy_bytes_inter=0)
    exchanger = HaloExchanger(decomp)
    state, intent = VoxelBlock.FIELD_DTYPES, IntentArrays.FIELD_DTYPES
    waves = [
        (exchanger.replace_routes, [state[n] for n in _WAVE_A + _WAVE_C]
         + [intent[n] for n in IntentArrays.REPLACE_FIELDS]),
        ([(r.src, d, r.region) for d in range(nd) for r in exchanger.pull_plan(d).max_merge],
         [intent[n] for n in IntentArrays.MAX_FIELDS]),
    ]
    for routes, dtypes in waves:
        for src, dst, region in routes:
            link = "inter" if src // gpus_per_node != dst // gpus_per_node else "intra"
            for dtype in dtypes:
                fixed[f"copies_{link}"] += 1
                fixed[f"copy_bytes_{link}"] += region.size * np.dtype(dtype).itemsize
    owned = sum(box.size for box in boxes)

    out = []
    for t in range(trace.num_steps):
        tiled = sum(tg.active_voxel_count() for tg in tiles)
        swept = bool(period) and (t + 1) % period == 0
        if swept:
            ghosts = np.pad(trace.wave_a[t] | trace.wave_c[t], 1) | _mirror_ring(trace.wave_c[t])
            for box, tg in zip(boxes, tiles):
                seen = ghosts[_padded(box)].copy()
                seen[(slice(1, -1),) * seen.ndim] = trace.active[t + 1][_owned(box)]
                tg.sweep(seen, padded=True)
        ledger = WorkLedger(
            launches={
                KernelCategory.UPDATE_AGENTS.value: GPU_UPDATE_LAUNCHES * nd,
                KernelCategory.REDUCE_STATS.value: nd,
                KernelCategory.TILE_SWEEP.value: nd if swept else 0,
            },
            voxels={
                KernelCategory.UPDATE_AGENTS.value:
                    GPU_TILED_LAUNCHES * tiled + nd * int(trace.attempts[t]),
                KernelCategory.REDUCE_STATS.value: fields * owned,
                KernelCategory.TILE_SWEEP.value: owned if swept else 0,
            },
            **fixed,
        )
        out.append({
            "ledger": ledger,
            "active_per_device": [tg.active_voxel_count() for tg in tiles],
        })
    return out


def cpu_step_work(
    trace: WorkloadTrace,
    decomp: Decomposition,
    ranks_per_node: int = 128,
    active_gating: bool = True,
) -> list[dict]:
    """Per step: ``{"comm": {...}, "active_per_rank": [...]}`` of
    SIMCoV-CPU on ``decomp`` over the traced run.

    A rank's active list is refreshed at step start, after the open wave
    made its in-domain ghosts current: owned voxels within one voxel of
    activity.  Its out-of-domain ghosts hold the mirror of the last
    diffusion it ran (an idle rank runs none).  Every step sends three
    strip waves over every route; an intent whose target another rank
    owns costs an intent RPC per (source, owner) pair, and a winning one a
    result RPC per (owner, source) pair.
    """
    spec, boxes = decomp.spec, decomp.boxes
    node = np.arange(len(boxes)) // ranks_per_node
    state = VoxelBlock.FIELD_DTYPES
    strips = rpcs_inter = nbytes = 0
    for src, dst, region in HaloExchanger(decomp).replace_routes:
        for wave in _CPU_WAVES:
            strips += 1
            rpcs_inter += int(node[src] != node[dst])
            nbytes += 2 * spec.ndim * _ID_BYTES + region.size * sum(
                np.dtype(state[n]).itemsize for n in wave
            )
    intent_bytes = {
        "moves": 2 * _ID_BYTES + _BID_BYTES + np.dtype(state["tcell_tissue_time"]).itemsize,
        "binds": 2 * _ID_BYTES + _BID_BYTES,
    }

    def owner(gids):
        return decomp.owner_of(spec.unravel(gids))

    def pairs(a, b):
        """RPCs for one message per distinct (a, b) rank pair."""
        if not a.size:
            return 0, 0
        uniq = np.unique(a * len(boxes) + b)
        return uniq.size, int((node[uniq // len(boxes)] != node[uniq % len(boxes)]).sum())

    interior = (slice(1, -1),) * spec.ndim
    ran = np.zeros(len(boxes), dtype=bool)
    out = []
    for t in range(trace.num_steps):
        rpcs, inter, step_bytes = strips, rpcs_inter, nbytes
        for kind in ("moves", "binds"):
            src, tgt, won = trace.intents(kind, t)
            rs, rt = owner(src), owner(tgt)
            remote = rs != rt
            for a, b, n_bytes in (
                (rs[remote], rt[remote], intent_bytes[kind]),
                (rt[remote & won], rs[remote & won], _ID_BYTES),
            ):
                n, n_inter = pairs(a, b)
                rpcs += n
                inter += n_inter
                step_bytes += a.size * n_bytes
        if active_gating:
            start = np.pad(trace.active[t], 1)
            quiet = _dilate(start)
            mirrored = _dilate(start | _mirror_ring(trace.wave_c[t - 1])) if t else quiet
            counts = [
                int((mirrored if ran[r] else quiet)[interior][_owned(box)].sum())
                for r, box in enumerate(boxes)
            ]
            ran = np.array(counts) > 0
        else:
            counts = [box.size for box in boxes]
        out.append({
            "comm": {"rpcs": rpcs, "rpc_bytes": step_bytes,
                     "rpcs_internode": inter, "reductions": 1},
            "active_per_rank": counts,
        })
    return out
