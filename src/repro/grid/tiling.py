"""Memory tiling with activation tracking (paper §3.2, Fig 3).

SIMCoV-GPU replaces the CPU version's dynamic active-list with fixed-size
*tiles*: the per-device subdomain is carved into tiles, each flagged active
or inactive, and kernels only touch active tiles.  A periodic sweep kernel
re-derives activity; the paper proves the sweep may run as rarely as once
per ``tile_side`` steps provided (a) activating a tile also activates a
one-tile-thick buffer around it and (b) tiles containing ghost voxels stay
active — because nothing in SIMCoV moves faster than one voxel per step.
"""

from __future__ import annotations

import numpy as np

from repro.grid.box import Box


class TileGrid:
    """Tile bookkeeping for one subdomain.

    Parameters
    ----------
    owned_shape:
        Shape of the owned (interior, ghost-less) region.
    tile_shape:
        Tile extents per dimension.  The paper requires an integer number of
        tiles per dimension; we additionally allow ragged edge tiles so that
        arbitrary problem sizes work (an edge tile is simply smaller).
    ghost:
        Halo width; boundary tiles (those within ``ghost`` voxels of the
        subdomain surface) are pinned active, mirroring the paper's rule
        that tiles containing ghost voxels are always active.
    """

    def __init__(self, owned_shape, tile_shape, ghost: int = 1,
                 pin_sides=None):
        self.owned_shape = tuple(int(s) for s in owned_shape)
        self.tile_shape = tuple(int(t) for t in tile_shape)
        self.ghost = int(ghost)
        #: (ndim, 2) booleans: pin the (low, high) tile shell of each axis.
        #: Only sides facing a *neighbor* subdomain need pinning — a domain
        #: boundary has no ghost traffic.  Default: pin everything.
        if pin_sides is None:
            pin_sides = np.ones((len(self.owned_shape), 2), dtype=bool)
        self.pin_sides = np.asarray(pin_sides, dtype=bool)
        if self.pin_sides.shape != (len(self.owned_shape), 2):
            raise ValueError(
                f"pin_sides must be (ndim, 2), got {self.pin_sides.shape}"
            )
        if len(self.tile_shape) != len(self.owned_shape):
            raise ValueError("tile_shape rank must match owned_shape rank")
        if any(t <= 0 for t in self.tile_shape):
            raise ValueError(f"tile extents must be positive: {self.tile_shape}")
        if any(t > s for t, s in zip(self.tile_shape, self.owned_shape)):
            raise ValueError(
                f"tile {self.tile_shape} larger than subdomain {self.owned_shape}"
            )
        self.tiles_per_dim = tuple(
            -(-s // t) for s, t in zip(self.owned_shape, self.tile_shape)
        )
        #: Active flags, one per tile.
        self.active = np.ones(self.tiles_per_dim, dtype=bool)
        self._pin_boundary_tiles()

    # -- geometry -----------------------------------------------------------

    @property
    def ndim(self) -> int:
        return len(self.owned_shape)

    @property
    def num_tiles(self) -> int:
        return int(np.prod(self.tiles_per_dim))

    @property
    def num_active(self) -> int:
        return int(self.active.sum())

    def active_voxel_count(self) -> int:
        """Total voxels inside active tiles (perf-model input)."""
        vol = np.ones((), dtype=np.int64)
        for n, t, s in zip(self.tiles_per_dim, self.tile_shape, self.owned_shape):
            edges = np.arange(n, dtype=np.int64) * t
            sizes = np.minimum(edges + t, s) - edges
            vol = np.multiply.outer(vol, sizes)
        return int(vol[self.active].sum())

    def tile_box(self, tile_idx) -> Box:
        """Owned-region-relative box of one tile (edge tiles clipped)."""
        lo = tuple(i * t for i, t in zip(tile_idx, self.tile_shape))
        hi = tuple(
            min((i + 1) * t, s)
            for i, t, s in zip(tile_idx, self.tile_shape, self.owned_shape)
        )
        return Box(lo, hi)

    def tile_of_voxel(self, coords) -> np.ndarray:
        """Tile indices (..., ndim) of owned-relative voxel coordinates."""
        c = np.asarray(coords, dtype=np.int64)
        return c // np.array(self.tile_shape, dtype=np.int64)

    def active_tile_indices(self) -> list[tuple[int, ...]]:
        """Indices of active tiles, deterministic C order."""
        return [tuple(int(i) for i in idx) for idx in zip(*np.nonzero(self.active))]

    def active_tile_slices(self) -> list[tuple[slice, ...]]:
        """Owned-region slices of each active tile, for kernel iteration."""
        return [
            self.tile_box(idx).slices_from((0,) * self.ndim)
            for idx in self.active_tile_indices()
        ]

    # -- activation protocol ---------------------------------------------------

    def _boundary_mask(self) -> np.ndarray:
        """Tiles touching a *neighbor-facing* subdomain surface (they contain
        ghost-adjacent voxels and are pinned active, §3.2)."""
        mask = np.zeros(self.tiles_per_dim, dtype=bool)
        if self.ghost <= 0:
            return mask
        for d in range(self.ndim):
            sl = [slice(None)] * self.ndim
            if self.pin_sides[d, 0]:
                sl[d] = 0
                mask[tuple(sl)] = True
            if self.pin_sides[d, 1]:
                sl[d] = self.tiles_per_dim[d] - 1
                mask[tuple(sl)] = True
        return mask

    def _pin_boundary_tiles(self) -> None:
        self.active |= self._boundary_mask()

    def sweep(self, activity_mask: np.ndarray, padded: bool = False) -> int:
        """Re-derive tile activity from a per-voxel activity mask.

        A tile becomes active if any voxel in (or, for ``padded`` masks,
        within one voxel of) it is active; active tiles are then dilated by
        one tile in every (Moore) direction — the safety buffer that makes
        a sweep period of up to ``min(tile_shape)`` steps sound.  Boundary
        tiles are pinned active afterwards (they contain ghost-adjacent
        voxels, §3.2).

        Pass the block's *padded* activity mask (``padded=True``, shape
        owned + 2*ghost) in multi-block runs: ghost activity then raw-
        activates the adjacent boundary tile, so activity entering from a
        neighbor device gets the same dilation buffer as local activity.
        Returns the number of voxels scanned.
        """
        if padded:
            expect = tuple(s + 2 * self.ghost for s in self.owned_shape)
            if activity_mask.shape != expect:
                raise ValueError(
                    f"padded mask shape {activity_mask.shape} != {expect}"
                )
        elif activity_mask.shape != self.owned_shape:
            raise ValueError(
                f"mask shape {activity_mask.shape} != owned {self.owned_shape}"
            )
        if padded:
            # A tile is raw-active iff any voxel within one voxel of it is
            # active (ghost ring included, conservative at tile seams):
            # equivalently, dilate the padded mask by one voxel and reduce
            # over the tile proper.
            g = self.ghost
            crop = tuple(slice(g, g + s) for s in self.owned_shape)
            mask = _dilate(activity_mask)[crop]
        else:
            mask = activity_mask
        raw = _tile_any(mask, self.tile_shape, self.tiles_per_dim)
        self.active = _dilate(raw)
        self._pin_boundary_tiles()
        return int(np.prod(self.owned_shape))

    def voxel_mask(self) -> np.ndarray:
        """Per-voxel boolean mask of active-tile membership (owned shape)."""
        return _expand_tiles(self.active, self.tile_shape, self.owned_shape)

    def max_sweep_period(self) -> int:
        """Longest sound sweep period: the smallest tile side (§3.2)."""
        return int(min(self.tile_shape))


def _dilate(mask: np.ndarray, ndim: int | None = None) -> np.ndarray:
    """Moore-neighborhood binary dilation by one cell (no scipy dependency).

    Box dilation is separable: dilating by one along each axis in turn
    equals the full Moore dilation, at 2·ndim shifted ORs instead of
    3**ndim - 1.  Only the trailing ``ndim`` axes are dilated (default:
    all of them); leading axes index independent masks — ensemble
    members — that must never leak activity into each other."""
    out = mask.copy()
    first = 0 if ndim is None else mask.ndim - ndim
    for d in range(first, mask.ndim):
        if mask.shape[d] < 2:
            continue
        prev = out.copy()
        lo = [slice(None)] * mask.ndim
        hi = [slice(None)] * mask.ndim
        lo[d], hi[d] = slice(None, -1), slice(1, None)
        out[tuple(hi)] |= prev[tuple(lo)]
        out[tuple(lo)] |= prev[tuple(hi)]
    return out


def _tile_any(mask: np.ndarray, tile_shape, tiles_per_dim) -> np.ndarray:
    """Per-tile ``any`` reduction of an owned-shape mask (ragged edge tiles
    padded with False so the array reshapes into (tiles, tile, ...) blocks).
    Axes in front of the ``len(tile_shape)`` spatial ones are kept."""
    lead = mask.shape[: mask.ndim - len(tile_shape)]
    full_shape = lead + tuple(n * t for n, t in zip(tiles_per_dim, tile_shape))
    if full_shape != mask.shape:
        full = np.zeros(full_shape, dtype=bool)
        full[(...,) + tuple(slice(0, s) for s in mask.shape[len(lead):])] = mask
        mask = full
    blocked = list(lead)
    for n, t in zip(tiles_per_dim, tile_shape):
        blocked += [n, t]
    axes = tuple(range(len(lead) + 1, len(blocked), 2))
    return mask.reshape(blocked).any(axis=axes)


def _expand_tiles(active: np.ndarray, tile_shape, owned_shape) -> np.ndarray:
    """Per-voxel membership mask of per-tile flags, cropped to the owned
    shape (the inverse of :func:`_tile_any`; leading axes are kept)."""
    first = active.ndim - len(tile_shape)
    for d, t in enumerate(tile_shape):
        active = active.repeat(t, axis=first + d)
    return active[(...,) + tuple(slice(0, s) for s in owned_shape)].copy()
