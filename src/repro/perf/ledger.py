"""What a SIMCoV-GPU step issues, and the four optimization prototypes.

A :class:`WorkLedger` holds the work the real code would issue in one step
— kernel launches, voxels processed per kernel category, atomic operations
and their conflicts, reduction traffic, D2D copies — and nothing about host
wall time.  :func:`repro.perf.work.gpu_step_work` fills one per step from a
trace; :func:`repro.perf.costs.gpu_step_seconds` prices it.

Work categories follow the paper's Fig 4 breakdown: agent/field updates
("Update Agents") vs statistics reduction ("Reduce Statistics").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class KernelCategory(enum.Enum):
    """Where a kernel's time is attributed in the Fig 4 breakdown."""

    UPDATE_AGENTS = "update_agents"
    REDUCE_STATS = "reduce_stats"
    TILE_SWEEP = "tile_sweep"


class GpuVariant(enum.Enum):
    """Which GPU optimizations are enabled (the Fig 4 prototypes, §3.4).

    - ``UNOPTIMIZED``: iterates the entire simulation space every step and
      accumulates statistics with atomics inside the update sweep;
    - ``FAST_REDUCTION``: tree reduction only;
    - ``MEMORY_TILING``: active-tile tracking only;
    - ``COMBINED``: both (the production configuration).
    """

    UNOPTIMIZED = "unoptimized"
    FAST_REDUCTION = "fast_reduction"
    MEMORY_TILING = "memory_tiling"
    COMBINED = "combined"

    @property
    def use_tiling(self) -> bool:
        return self in (GpuVariant.MEMORY_TILING, GpuVariant.COMBINED)

    @property
    def use_tree_reduction(self) -> bool:
        return self in (GpuVariant.FAST_REDUCTION, GpuVariant.COMBINED)

    @property
    def label(self) -> str:
        """Fig 4 y-axis label."""
        return {
            GpuVariant.UNOPTIMIZED: "Unoptimized",
            GpuVariant.FAST_REDUCTION: "Fast Reduction",
            GpuVariant.MEMORY_TILING: "Memory Tiling",
            GpuVariant.COMBINED: "Combined",
        }[self]


@dataclass
class WorkLedger:
    """Counters for one step, summed over devices."""

    #: Kernel launches by category value.
    launches: dict = field(default_factory=dict)
    #: Voxels processed by kernels, by category value.
    voxels: dict = field(default_factory=dict)
    #: Atomic operations issued.
    atomic_ops: int = 0
    #: Atomic operations that contended (same address in one batch).
    atomic_conflicts: int = 0
    #: Elements fed through shared-memory tree reductions.
    reduce_tree_elems: int = 0
    #: D2D copy messages / bytes within a node (NVLink class).
    copies_intra: int = 0
    copy_bytes_intra: int = 0
    #: D2D copy messages / bytes across nodes (network).
    copies_inter: int = 0
    copy_bytes_inter: int = 0
    #: Cross-device reductions (host-coordinated).
    device_reductions: int = 0

    def total_launches(self) -> int:
        return sum(self.launches.values())
