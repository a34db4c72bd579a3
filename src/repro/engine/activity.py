"""Activity gating: the shared active-region layer for CPU-side backends.

The paper's memory-tiling insight (§3.2) is that early- and late-infection
steps touch only a tiny fraction of the domain, so kernels should skip
inactive space.  :class:`ActivityGate` packages that rule once, for every
backend that runs numpy kernels over region slices:

- **periodic-sweep mode** (``sweep_period > 1``): a coarse
  :class:`~repro.grid.tiling.TileGrid` mask is re-derived every
  ``sweep_period`` steps from the block's per-voxel activity mask, exactly
  the GPU backend's §3.2 rule — the sweep may run as rarely as once per
  ``min(tile_shape)`` steps provided activating a tile also activates a
  one-tile buffer around it and ghost-facing tiles stay pinned active,
  because nothing in SIMCoV moves faster than one voxel per step;
- **refresh mode** (``sweep_period == 1``): the per-voxel mask is
  recomputed every step and dilated by one voxel — the CPU active-list of
  §2.2.

A ``repro.dist`` rank runs the periodic mode over its owned voxels and
ghost band, and sweeps early whenever its start-of-step pull changed the
band, so activity arriving from a neighbor rank is seen in time.

A block may carry a leading member axis (an
:class:`~repro.core.state.EnsembleBlock`): the sweep then runs over the
trailing spatial axes only, so every member keeps its own active set, and
the region is the *union* bounding box across members with the full
member axis in front — a superset of each member's own box.

Either way the gate exposes one *bounding region* (padded-array slices)
that kernels execute over.  Voxels inside the region but outside the raw
activity mask are provably no-ops, and all randomness is keyed by global
voxel id (counter-based, stateless per draw), so gated runs are **bitwise
identical** to ungated runs — the contract enforced by
tests/properties/test_gating_equivalence.py and the golden traces.
"""

from __future__ import annotations

import numpy as np

from repro.core import native
from repro.core.binding import EMPTY_BOX, box_slices
from repro.core.state import VoxelBlock
from repro.grid.tiling import TileGrid, _dilate, _expand_tiles, _tile_any


def bounding_box(mask: np.ndarray, starts) -> tuple[slice, ...] | None:
    """Slices bounding the Trues of ``mask`` along its trailing
    ``len(starts)`` axes, each shifted by its entry of ``starts``; leading
    (member) axes are reduced away.  None if the mask is all False."""
    first = mask.ndim - len(starts)
    sls = []
    for axis, start in enumerate(starts, first):
        other = tuple(a for a in range(mask.ndim) if a != axis)
        idx = np.nonzero(mask.any(axis=other))[0]
        if idx.size == 0:
            return None
        sls.append(slice(start + int(idx[0]), start + int(idx[-1]) + 1))
    return tuple(sls)


class ActivityGate:
    """Tracks the region of a block that kernels must process.

    Parameters
    ----------
    block:
        The ghost-padded block whose activity is tracked; solo, or
        batched with a leading member axis.
    min_chemokine:
        Signal threshold of the activity definition (sub-threshold signal
        is zeroed at commit time, so it cannot seed future activity); a
        per-member broadcast array on a parameter-sweep ensemble.
    sweep_period:
        Steps between sweeps.  ``1`` selects refresh mode (every-step
        mask recompute, one-voxel dilation); ``> 1`` selects periodic
        tile sweeps.  Default: the largest sound period,
        ``min(tile_shape)`` (refresh mode when that is 1).
    tile_shape:
        Tile extents for periodic-sweep mode; default 8 per dimension
        (clipped to the block).  Ignored in refresh mode.
    enabled:
        ``False`` forces the ungated path: the region is always the full
        interior and sweeps never run (the benchmark/testing baseline).
    """

    def __init__(
        self,
        block: VoxelBlock,
        min_chemokine,
        sweep_period: int | None = None,
        tile_shape: tuple[int, ...] | None = None,
        enabled: bool = True,
    ):
        self.block = block
        self.min_chemokine = min_chemokine
        self.enabled = bool(enabled)
        owned = block.owned.shape
        if tile_shape is None:
            tile_shape = tuple(min(8, s) for s in owned)
        else:
            tile_shape = tuple(min(int(t), s) for t, s in zip(tile_shape, owned))
        #: Tile geometry only (validates the tile arguments); built
        #: ghost-less so no tile is pinned — a single block has no
        #: neighbor-facing side.
        self.tiles = TileGrid(owned, tile_shape, ghost=0)
        max_period = self.tiles.max_sweep_period()
        if sweep_period is None:
            sweep_period = max_period
        sweep_period = int(sweep_period)
        if not 1 <= sweep_period <= max_period:
            raise ValueError(
                f"sweep_period {sweep_period} outside sound range "
                f"[1, {max_period}] for tiles {tile_shape}"
            )
        self.sweep_period = sweep_period
        #: Tile extents of the sweep: one voxel in refresh mode.  The
        #: compiled window pass takes them as (Z, Y, X), then 1 to dilate
        #: the tile flags (periodic mode) or 0.
        self._tile = self.tiles.tile_shape if sweep_period > 1 else (1,) * len(owned)
        self._native_tiles = np.array(
            [1] * (3 - len(owned)) + [*self._tile, sweep_period > 1], dtype=np.int64
        )
        #: Member axes in front of the spatial ones: ``()`` or ``(B,)``.
        lead = block.shape[: len(block.shape) - len(owned)]
        self._lead = tuple(slice(0, n) for n in lead)
        self._full_region = self._lead + tuple(
            slice(block.ghost, block.ghost + s) for s in owned
        )
        #: Depth of the block's outer shell every sweep examines (see
        #: :meth:`_examined`): the ghost ring, and on a dist rank the
        #: whole ghost band its pulls land in.
        self.shell = block.ghost
        self._spatial_axes = tuple(range(len(lead), len(block.shape)))
        #: The raw activity mask, padded shape, kept between sweeps: False
        #: wherever a sweep reads it.  Allocated by the first sweep, so a
        #: gate nobody sweeps holds no second block-sized buffer.
        self._raw: np.ndarray | None = None
        #: The compiled passes' outputs, kept so that their bindings last
        #: (:mod:`repro.core.binding`): the raw mask's hull, and the window
        #: pass's member counts then box.
        self._hull = EMPTY_BOX.copy()
        self._found = np.concatenate([np.zeros(lead[0] if lead else 1, np.int64), EMPTY_BOX])
        self.reset()

    def reset(self) -> None:
        """Everything active (like the GPU tile grid) and :attr:`stale`: the
        state of a fresh gate, and of any gate whose block was just
        rewritten by a checkpoint restore.  Whoever steps the block sweeps
        a stale gate before its first kernel, so no step runs all-active."""
        #: The tracked mask in the block's padded layout (what the compiled
        #: sweep writes); :attr:`mask` is its owned part.
        self._padded = np.ones(self.block.shape, dtype=bool)
        self._mask = self._padded[self._full_region]
        #: The owned slices of ``_mask`` that may hold a True, which the
        #: next sweep clears.
        self._window = (...,)
        #: Active voxels of each member (a scalar on a solo block).
        self.member_counts = self._mask.sum(axis=self._spatial_axes)
        self._region: tuple[slice, ...] | None = self._full_region
        #: Spatial padded slices bounding the raw activity the last sweep
        #: found (None: none); the whole interior until one has run.  A
        #: dist rank bounds each step's writes with it.
        self.hull = self._full_region[len(self._lead):]
        #: No sweep has seen the block's current state; cleared by
        #: :meth:`sweep`.
        self.stale = True

    # -- the sweep rule -------------------------------------------------------

    def due(self, step: int) -> bool:
        """Whether the end-of-step sweep is due after ``step`` (mirrors the
        GPU backend: the sweep at the end of step ``s`` covers steps
        ``s+1 .. s+sweep_period``)."""
        return self.enabled and (step + 1) % self.sweep_period == 0

    def sweep(self) -> int:
        """Re-derive the active region from current block state.

        The raw activity mask is computed only where activity can be (see
        :meth:`_examined`) and is False elsewhere.  Everything after that
        runs on one *window* of the block — the hull of the raw Trues,
        grown by the one-voxel dilation and aligned outward to tile
        boundaries plus the one-tile buffer — outside which the result is
        provably False: the raw mask is dilated by one voxel and cropped
        to the owned voxels (refresh mode, whose tile is one voxel, stops
        there); periodic mode then reduces it per tile, dilates the tile
        flags by one tile and expands them back to voxels — what an
        unpinned :meth:`TileGrid.sweep` does, here with any member axis
        carried along in front.  Both passes have a compiled body
        (``native.tier()``) beside the numpy one, with its bits; both keep
        the raw and the result masks from sweep to sweep, clearing what
        the last sweep set.  Returns the owned voxel count (what the
        modeled sweep kernel scans).
        """
        self.stale = False
        if not self.enabled:
            return 0
        block, tiles = self.block, self.tiles
        g, owned, ndim = block.ghost, tiles.owned_shape, tiles.ndim
        if self._raw is None:
            self._raw = np.zeros(block.shape, dtype=bool)
        tier = native.tier()
        hull = self.hull = self._fill_raw(tier)
        self._mask[self._window] = False
        self._window = (slice(0, 0),)
        if hull is None:
            self.member_counts = np.zeros(
                self._mask.shape[: len(self._lead)], dtype=np.intp
            )
            self._region = None
            return self._mask.size
        tile = self._tile
        # Owned-coordinate window: from the tile before the one holding
        # the grown hull's first voxel to the tile after its last one's.
        lo = [max(((h.start - g - 1) // t - 1) * t, 0)
              for h, t in zip(hull, tile)]
        hi = [min(((h.stop - g) // t + 2) * t, n)
              for h, t, n in zip(hull, tile, owned)]
        self._window = (...,) + tuple(slice(a, b) for a, b in zip(lo, hi))
        if tier is None:
            box = self._sweep_window(lo, hi)
        else:
            found, members = self._found, len(self._found) - 6
            found[:members], found[members:] = 0, EMPTY_BOX
            window = self._lead + tuple(slice(a + g, b + g) for a, b in zip(lo, hi))
            tier.sweep_window(block, window, self._raw, self._native_tiles, self._padded, found)
            self.member_counts = found[:members].copy() if self._lead else found[0]
            box = box_slices(found[members:], ndim)
        # Both passes read the raw mask one voxel around the window only.
        self._raw[(...,) + tuple(slice(a + g - 1, b + g + 1) for a, b in zip(lo, hi))] = False
        self._region = None if box is None else self._lead + box
        return self._mask.size

    def _fill_raw(self, tier) -> tuple[slice, ...] | None:
        """The raw activity mask over every examined piece; the spatial
        (padded) hull of its Trues, None if there are none."""
        block, ndim = self.block, self.tiles.ndim
        if tier is not None:
            found = self._hull
            found[:] = EMPTY_BOX
            tier.activity(block, self._examined(), self.min_chemokine, self._raw, found)
            return box_slices(found, ndim)
        hull = None
        for sl in self._examined():
            piece = block._activity(sl, self.min_chemokine)
            box = bounding_box(piece, [s.start for s in sl[-ndim:]])
            if box is None:
                continue
            self._raw[sl] = piece
            hull = box if hull is None else tuple(
                slice(min(a.start, b.start), max(a.stop, b.stop))
                for a, b in zip(hull, box)
            )
        return hull

    def _sweep_window(self, lo, hi):
        """The numpy body of the window pass (the compiled one is
        ``_native.c``'s ``sweep_window``): the mask and member counts over
        the owned window ``[lo, hi)``; returns the mask's bounding box."""
        g, ndim, tile = self.block.ghost, self.tiles.ndim, self._tile
        shape = tuple(b - a for a, b in zip(lo, hi))
        # The dilation reads one voxel beyond the window, ghosts included.
        grown = tuple(slice(a + g - 1, b + g + 1) for a, b in zip(lo, hi))
        mask = _dilate(self._raw[(...,) + grown], ndim)[(...,) + (slice(1, -1),) * ndim]
        if self.sweep_period > 1:
            per_dim = tuple(-(-s // t) for s, t in zip(shape, tile))
            flags = _dilate(_tile_any(mask, tile, per_dim), ndim)
            mask = _expand_tiles(flags, tile, shape)
        self._mask[self._window] = mask
        self.member_counts = mask.sum(axis=self._spatial_axes)
        return bounding_box(mask, [a + g for a in lo])

    def _examined(self):
        """Padded-array slices a sweep must read.

        Every active *owned* voxel lies inside the current region: a
        kernel writes only there, and the region already holds everything
        activity can reach before the next sweep (one voxel per step: the
        one-voxel dilation in refresh mode, the one-tile buffer over at
        most a tile side of steps in periodic mode) — the invariant gating
        itself rests on.  Pulls, not kernels, write the outer
        :attr:`shell` (a dist rank's ghost band), so a neighbour's
        activity arrives there.  Hence: the region grown by the ghost
        width, plus the ``2 * ndim`` faces of the shell.  State written
        behind the gate's back (a restore) breaks the premise;
        :meth:`reset` restores it.
        """
        g, h, nlead = self.block.ghost, self.shell, len(self._lead)
        spatial = self.block.shape[nlead:]
        if self._region is not None:
            yield self._lead + tuple(
                slice(max(s.start - g, 0), min(s.stop + g, n))
                for s, n in zip(self._region[nlead:], spatial)
            )
        for axis, n in enumerate(spatial):
            for face in (slice(0, min(h, n)), slice(max(n - h, 0), n)):
                yield self._lead + tuple(
                    face if a == axis else slice(0, m)
                    for a, m in enumerate(spatial)
                )

    # -- consumers ------------------------------------------------------------

    def region(self) -> tuple[slice, ...] | None:
        """Padded-array slices kernels must process (None if idle).

        The full interior when gating is disabled or no sweep ran yet.
        """
        if not self.enabled:
            return self._full_region
        return self._region

    def region_box(self):
        """The current region as a global-coordinate :class:`Box`, or None
        when idle — the value a dist worker publishes into the control
        segment's strip-liveness row (every kernel's writes this step are
        confined to this box, so peers may skip pulls it cannot touch)."""
        region = self.region()
        if region is None:
            return None
        from repro.grid.box import Box

        origin = self.block.origin
        spatial = region[len(self._lead):]
        return Box(
            tuple(o + s.start for o, s in zip(origin, spatial)),
            tuple(o + s.stop for o, s in zip(origin, spatial)),
        )

    @property
    def count(self) -> int:
        """Active voxels, summed over members (the perf model's work unit)."""
        if not self.enabled:
            return self._mask.size
        return int(self.member_counts.sum())

    @property
    def mask(self) -> np.ndarray:
        """Boolean mask of the tracked active set: owned shape, behind the
        member axis of a batched block."""
        return self._mask

    def fraction(self) -> float:
        """Active fraction of the owned region."""
        return self.count / self._mask.size
