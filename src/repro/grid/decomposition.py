"""Domain decomposition: distributing the voxel grid over ranks/devices.

The paper (Fig 1B) uses either *linear* (1D strips) or *block* (2D/3D)
decomposition; block decomposition minimizes halo surface and is the default
for both SIMCoV implementations.  Each rank owns an axis-aligned box of
voxels; neighbor ranks are those whose ghost-expanded boxes overlap.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from repro.grid.box import Box
from repro.grid.spec import GridSpec


class DecompositionKind(enum.Enum):
    """How the domain is subdivided (paper Fig 1B top vs bottom)."""

    LINEAR = "linear"
    BLOCK = "block"


def _near_square_factorization(n: int, ndim: int, shape: tuple[int, ...]) -> tuple[int, ...]:
    """Factor ``n`` ranks into a process grid as close to cubic as possible,
    weighted by the domain aspect ratio (longer axes get more cuts).

    Greedy: repeatedly assign the largest remaining prime factor to the axis
    with the largest per-rank extent.
    """
    factors = []
    m = n
    p = 2
    while p * p <= m:
        while m % p == 0:
            factors.append(p)
            m //= p
        p += 1
    if m > 1:
        factors.append(m)
    grid = [1] * ndim
    for f in sorted(factors, reverse=True):
        # Axis whose subdomain extent is currently largest, among axes
        # that can still accommodate the factor (>= 1 voxel per rank).
        candidates = [d for d in range(ndim) if grid[d] * f <= shape[d]]
        if not candidates:
            raise ValueError(
                f"cannot block-decompose shape {shape} over {n} ranks: "
                f"prime factor {f} exceeds every remaining axis"
            )
        axis = max(candidates, key=lambda d: shape[d] / grid[d])
        grid[axis] *= f
    return tuple(grid)


def _split_extent(extent: int, parts: int) -> list[tuple[int, int]]:
    """Split [0, extent) into ``parts`` contiguous ranges differing by <=1."""
    if parts > extent:
        raise ValueError(f"cannot split extent {extent} into {parts} parts")
    base = extent // parts
    rem = extent % parts
    out = []
    lo = 0
    for i in range(parts):
        hi = lo + base + (1 if i < rem else 0)
        out.append((lo, hi))
        lo = hi
    return out


@dataclass(frozen=True)
class Decomposition:
    """A partition of the grid into per-rank boxes.

    Attributes
    ----------
    spec:
        The global grid.
    proc_grid:
        Ranks per dimension, e.g. ``(4, 2)``.
    boxes:
        ``boxes[rank]`` is the owned box of ``rank``; together they tile the
        domain exactly (validated by the test suite).
    """

    spec: GridSpec
    proc_grid: tuple[int, ...]
    boxes: tuple[Box, ...] = field(init=False)

    def __post_init__(self):
        proc_grid = tuple(int(p) for p in self.proc_grid)
        if len(proc_grid) != self.spec.ndim:
            raise ValueError(
                f"proc_grid rank {len(proc_grid)} != grid ndim {self.spec.ndim}"
            )
        if any(p <= 0 for p in proc_grid):
            raise ValueError(f"proc_grid must be positive, got {proc_grid}")
        object.__setattr__(self, "proc_grid", proc_grid)
        splits = [
            _split_extent(e, p) for e, p in zip(self.spec.shape, proc_grid)
        ]
        boxes = []
        for pcoord in np.ndindex(*proc_grid):
            lo = tuple(splits[d][pcoord[d]][0] for d in range(self.spec.ndim))
            hi = tuple(splits[d][pcoord[d]][1] for d in range(self.spec.ndim))
            boxes.append(Box(lo, hi))
        object.__setattr__(self, "boxes", tuple(boxes))

    # -- constructors --------------------------------------------------------

    @classmethod
    def linear(cls, spec: GridSpec, nranks: int) -> "Decomposition":
        """1D strip decomposition along the first axis (Fig 1B bottom)."""
        grid = (nranks,) + (1,) * (spec.ndim - 1)
        return cls(spec, grid)

    @classmethod
    def blocks(cls, spec: GridSpec, nranks: int) -> "Decomposition":
        """Near-square 2D/3D block decomposition (Fig 1B top)."""
        return cls(spec, _near_square_factorization(nranks, spec.ndim, spec.shape))

    @classmethod
    def make(
        cls, spec: GridSpec, nranks: int, kind: DecompositionKind
    ) -> "Decomposition":
        if kind is DecompositionKind.LINEAR:
            return cls.linear(spec, nranks)
        return cls.blocks(spec, nranks)

    # -- queries --------------------------------------------------------------

    @property
    def nranks(self) -> int:
        return len(self.boxes)

    def rank_coords(self, rank: int) -> tuple[int, ...]:
        """Process-grid coordinates of ``rank`` (C order over proc_grid)."""
        return tuple(int(c) for c in np.unravel_index(rank, self.proc_grid))

    def owner_of(self, coords) -> np.ndarray:
        """Owning rank for each global coordinate, shape (...,)."""
        c = np.asarray(coords, dtype=np.int64)
        rank_idx = np.zeros(c.shape[:-1], dtype=np.int64)
        for d in range(self.spec.ndim):
            edges = np.array(
                [b for (_, b) in _split_extent(self.spec.shape[d], self.proc_grid[d])]
            )
            idx_d = np.searchsorted(edges, c[..., d], side="right")
            rank_idx = rank_idx * self.proc_grid[d] + idx_d
        return rank_idx

    def neighbors(self, rank: int, ghost: int = 1) -> list[int]:
        """Ranks whose owned box overlaps ``rank``'s ghost-expanded box
        (includes diagonal neighbors, which T-cell moves need)."""
        ext = self.boxes[rank].expand(ghost).clip(self.spec.domain)
        out = []
        for other in range(self.nranks):
            if other == rank:
                continue
            if not self.boxes[other].intersect(ext).is_empty:
                out.append(other)
        return out

    def halo_surface_voxels(self, rank: int, ghost: int = 1) -> int:
        """Number of ghost voxels around ``rank``'s box (communication volume
        proxy; block beats linear here, which the ablation bench shows)."""
        box = self.boxes[rank]
        ext = box.expand(ghost).clip(self.spec.domain)
        return ext.size - box.size
