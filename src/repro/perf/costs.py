"""Pricing counted work.

These functions convert one step's ledger/comm counts
(:mod:`repro.perf.work`) into modeled seconds.  They are the ground truth
the supercell projector must agree with (tested), and they power the Fig 4
optimization-breakdown bench,
whose two bars are exactly :class:`GpuStepCost.update_seconds` and
:class:`GpuStepCost.reduce_seconds`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.perf.ledger import WorkLedger
from repro.perf.machine import MachineModel

_NS = 1e-9
_US = 1e-6
_GB = 1e9


def cpu_step_seconds(
    machine: MachineModel,
    active_per_rank: list[int],
    comm_delta: dict,
    nranks: int,
) -> float:
    """Modeled seconds for one SIMCoV-CPU step.

    Compute time is the *maximum* over ranks (bulk-synchronous steps wait
    for the slowest rank — the load-imbalance term); communication is the
    per-rank share of RPC overheads and payload, plus the allreduce tree.
    """
    compute = max(active_per_rank, default=0) * machine.cpu_voxel_ns * _NS
    rpcs = comm_delta.get("rpcs", 0)
    rpc_bytes = comm_delta.get("rpc_bytes", 0)
    inter = comm_delta.get("rpcs_internode", 0)
    comm = (
        (rpcs / max(1, nranks)) * machine.cpu_rpc_us * _US
        + (inter / max(1, nranks)) * machine.cpu_rpc_internode_us * _US
        + (rpc_bytes / max(1, nranks)) / (machine.cpu_bw_GBps * _GB)
    )
    rounds = math.ceil(math.log2(nranks)) if nranks > 1 else 0
    reduce = (
        comm_delta.get("reductions", 0)
        * rounds
        * machine.cpu_allreduce_round_us
        * _US
    )
    return compute + comm + reduce


@dataclass(frozen=True)
class GpuStepCost:
    """One GPU step's modeled time, split by the Fig 4 categories."""

    update_seconds: float
    reduce_seconds: float
    sweep_seconds: float
    comm_seconds: float
    coord_seconds: float

    @property
    def total_seconds(self) -> float:
        return (
            self.update_seconds
            + self.reduce_seconds
            + self.sweep_seconds
            + self.comm_seconds
            + self.coord_seconds
        )


def gpu_step_seconds(
    machine: MachineModel,
    ledger: WorkLedger,
    active_per_device: list[int],
    num_devices: int,
    tiling: bool,
) -> GpuStepCost:
    """Modeled seconds for one SIMCoV-GPU step from its ledger delta.

    The shared ledger holds totals across devices; per-device time is the
    mean share scaled by the load-imbalance factor max/mean (devices wait
    at every halo wave for the busiest neighbor).
    """
    nd = max(1, num_devices)
    mean_active = sum(active_per_device) / nd if active_per_device else 0.0
    imbalance = (
        max(active_per_device) / mean_active
        if mean_active > 0
        else 1.0
    )
    locality = machine.gpu_tiling_locality if tiling else 1.0

    launches = ledger.total_launches() / nd
    update_voxels = ledger.voxels.get("update_agents", 0) / nd
    update = (
        launches * machine.gpu_launch_us * _US
        + update_voxels * imbalance * machine.gpu_voxel_ns * locality * _NS
    )

    # Reduction: tree elements and/or raw atomics (the unoptimized path).
    # Locality applies to both paths — the Fig 4 observation that tiling
    # speeds up reductions too, "likely due to the enhanced data locality
    # reducing slow memory accesses as the reduction kernel sweeps" (§3.4).
    reduce = (
        (ledger.reduce_tree_elems / nd)
        * machine.gpu_reduce_elem_ns
        * locality
        * _NS
        + (ledger.atomic_ops / nd) * machine.gpu_atomic_ns * locality * _NS
        + (ledger.atomic_conflicts / nd)
        * machine.gpu_atomic_conflict_ns
        * locality
        * _NS
    )

    sweep = (
        (ledger.voxels.get("tile_sweep", 0) / nd)
        * machine.gpu_sweep_voxel_ns
        * _NS
    )

    comm = (
        (ledger.copies_intra / nd) * machine.gpu_copy_lat_intra_us * _US
        + (ledger.copy_bytes_intra / nd) / (machine.gpu_copy_bw_intra_GBps * _GB)
        + (ledger.copies_inter / nd) * machine.gpu_copy_lat_inter_us * _US
        + (ledger.copy_bytes_inter / nd) / (machine.gpu_copy_bw_inter_GBps * _GB)
    )

    rounds = math.ceil(math.log2(nd)) if nd > 1 else 0
    coord = ledger.device_reductions * (
        machine.gpu_coord_us + rounds * machine.gpu_net_round_us
    ) * _US
    return GpuStepCost(update, reduce, sweep, comm, coord)


def gpu_memory_per_device(machine: MachineModel, voxels: int, devices: int) -> int:
    """Device bytes for an even decomposition (feasibility checks: the
    paper's strong-scaling base was sized to fill the A100s, §4.2)."""
    return int(voxels / max(1, devices)) * machine.gpu_bytes_per_voxel


def fits_gpu_memory(machine: MachineModel, voxels: int, devices: int) -> bool:
    return gpu_memory_per_device(machine, voxels, devices) <= machine.gpu_capacity_bytes
