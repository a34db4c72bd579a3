"""Global grid specification and neighborhood stencils.

SIMCoV's world is a 2D or 3D grid of 5 µm voxels (paper §2.2).  The spec
owns the global-coordinate <-> global-voxel-id mapping used to key the
counter-based RNG, which must be decomposition independent.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from repro.grid.box import Box

#: Edge length of one voxel in microns (paper §2.1: "five microns cubed").
VOXEL_MICRONS = 5.0


@functools.lru_cache(maxsize=None)
def moore_offsets(ndim: int) -> np.ndarray:
    """All nonzero offsets with Chebyshev distance 1: 8 in 2D, 26 in 3D.

    T cells move to any adjacent voxel; this is their move/bind stencil.
    Ordered deterministically (itertools.product order) so a random index
    into the stencil means the same direction everywhere.
    """
    offs = [
        o for o in itertools.product((-1, 0, 1), repeat=ndim) if any(o)
    ]
    return np.array(offs, dtype=np.int64)


@dataclass(frozen=True)
class GridSpec:
    """The global voxel grid.

    Parameters
    ----------
    shape:
        Grid extents, ``(nx, ny)`` for 2D or ``(nx, ny, nz)`` for 3D.
    """

    shape: tuple[int, ...]

    def __post_init__(self):
        shape = tuple(int(s) for s in self.shape)
        if len(shape) not in (2, 3):
            raise ValueError(f"grid must be 2D or 3D, got shape {shape}")
        if any(s <= 0 for s in shape):
            raise ValueError(f"grid extents must be positive, got {shape}")
        object.__setattr__(self, "shape", shape)

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def num_voxels(self) -> int:
        n = 1
        for s in self.shape:
            n *= s
        return n

    @property
    def domain(self) -> Box:
        """The whole grid as a box."""
        return Box((0,) * self.ndim, self.shape)

    # -- id mapping ---------------------------------------------------------

    def ravel(self, coords) -> np.ndarray:
        """Global voxel ids (int64) for coordinates of shape (..., ndim).

        C-order raveling — a pure function of the *global* coordinate, hence
        identical on every rank/device.
        """
        c = np.asarray(coords, dtype=np.int64)
        if c.shape[-1] != self.ndim:
            raise ValueError(
                f"coords last axis {c.shape[-1]} != grid ndim {self.ndim}"
            )
        out = c[..., 0].copy()
        for d in range(1, self.ndim):
            out = out * self.shape[d] + c[..., d]
        return out

    def unravel(self, ids) -> np.ndarray:
        """Inverse of :meth:`ravel`; returns coordinates (..., ndim)."""
        ids = np.asarray(ids, dtype=np.int64)
        out = np.empty(ids.shape + (self.ndim,), dtype=np.int64)
        rem = ids
        for d in range(self.ndim - 1, 0, -1):
            out[..., d] = rem % self.shape[d]
            rem = rem // self.shape[d]
        out[..., 0] = rem
        return out

    def id_grid(self, box: Box) -> np.ndarray:
        """Global voxel ids over ``box`` as an array of ``box.shape``."""
        axes = [np.arange(l, h, dtype=np.int64) for l, h in zip(box.lo, box.hi)]
        out = axes[0].reshape((-1,) + (1,) * (self.ndim - 1)).copy()
        for d in range(1, self.ndim):
            shape = [1] * self.ndim
            shape[d] = -1
            out = out * self.shape[d] + axes[d].reshape(shape)
        return np.broadcast_to(out, box.shape).copy() if out.shape != box.shape else out
