"""Voxel-grid infrastructure shared by both SIMCoV implementations.

Provides the spatial vocabulary of the paper: the global voxel grid
(:class:`~repro.grid.spec.GridSpec`), axis-aligned boxes
(:class:`~repro.grid.box.Box`), linear / 2D / 3D block domain decomposition
(:class:`~repro.grid.decomposition.Decomposition`, Fig 1B), ghost-halo
geometry and exchange (:mod:`repro.grid.halo`, Fig 2) and memory tiling
with activation tracking (:mod:`repro.grid.tiling`, §3.2 / Fig 3).
"""

from repro.grid.box import Box
from repro.grid.spec import GridSpec, moore_offsets
from repro.grid.decomposition import Decomposition, DecompositionKind
from repro.grid.halo import HaloExchanger, MergeMode
from repro.grid.tiling import TileGrid

__all__ = [
    "Box",
    "GridSpec",
    "moore_offsets",
    "Decomposition",
    "DecompositionKind",
    "HaloExchanger",
    "MergeMode",
    "TileGrid",
]
