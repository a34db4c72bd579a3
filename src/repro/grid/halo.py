"""Ghost-halo exchange between subdomains.

Two merge modes (paper §3.1):

- ``REPLACE`` — the owner's value is authoritative; owned boundary voxels are
  copied into every neighbor's ghost halo.  Used for epithelial state,
  concentration fields and T-cell payloads.
- ``MAX`` — all copies of a voxel (owned or ghost) are combined with
  element-wise maximum.  This is the bid-merge that lets the T-cell tiebreak
  finish in a *single* communication wave: each device writes bids into its
  own memory (including ghost targets), then one max-merge exchange makes
  every copy of every voxel equal to the global maximum bid.

A single exchange round is exact for MAX because any device that writes a
voxel and any device that reads it both hold that voxel in their (ghost-
expanded) extents, so they are direct neighbors and exchange that strip —
including the diagonal corner strips.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.grid.box import Box
from repro.grid.decomposition import Decomposition


class MergeMode(enum.Enum):
    REPLACE = "replace"
    MAX = "max"


@dataclass(frozen=True)
class PullRoute:
    """One incoming message of a rank's halo plan, in pull form.

    ``region`` is the global box the receiver reads from ``src``'s local
    array and writes (REPLACE) or max-merges (MAX) into its own.  Plain
    tuples of ints only, so plans pickle cheaply across process spawns.
    """

    src: int
    region_lo: tuple[int, ...]
    region_hi: tuple[int, ...]

    @property
    def region(self) -> Box:
        return Box(self.region_lo, self.region_hi)


@dataclass(frozen=True)
class RankPullPlan:
    """Everything one rank needs to run its side of every exchange wave
    without the :class:`HaloExchanger` (or any other rank's Python
    objects) in its address space — the serialized route table a detached
    worker process receives once at spawn.

    ``origins[r]`` is the global coordinate of rank ``r``'s padded-array
    element ``[0, 0, ...]``; combined with a route's region it yields the
    source and destination slices of the copy.
    """

    rank: int
    origins: tuple[tuple[int, ...], ...]
    replace: tuple[PullRoute, ...]
    max_merge: tuple[PullRoute, ...]

    def src_slices(self, route: PullRoute) -> tuple[slice, ...]:
        return route.region.slices_from(self.origins[route.src])

    def dst_slices(self, route: PullRoute) -> tuple[slice, ...]:
        return route.region.slices_from(self.origins[self.rank])

    @property
    def neighbor_ranks(self) -> tuple[int, ...]:
        """Every rank this plan reads from (segment-attach list)."""
        return tuple(
            sorted({r.src for r in self.replace} | {r.src for r in self.max_merge})
        )


def strip_live(route_region: Box, src_region: Box | None, dilate: int = 0) -> bool:
    """Whether a pull route can carry fresh data, given the source rank's
    published activity bounding box (None = idle rank).

    A strip is dead — and its pull skippable, bitwise invisibly — when the
    source wrote nothing inside the route's region since the destination
    last pulled it: every state kernel confines its writes to the gate's
    bounding region.  ``dilate`` widens the source region for waves whose
    writes spill past it (the intent scatter-max reaches one voxel out).
    """
    if src_region is None:
        return False
    if dilate:
        src_region = src_region.expand(dilate)
    return not route_region.intersect(src_region).is_empty


class HaloExchanger:
    """Precomputed message routes for one decomposition + ghost width.

    Parameters
    ----------
    decomp:
        The domain decomposition.
    ghost:
        Halo width in voxels.  A halo exchanged between every kernel
        needs 1 — nothing moves or diffuses farther than one voxel per
        step, the invariant memory tiling relies on (§3.2) — and that is
        what the modeled GPU and CPU waves ship.  A dist rank pulls once
        a step and computes the rest itself, so its halo is one step's
        whole dependency cone deep
        (:func:`~repro.engine.sequential.step_reach`).
    on_message:
        Optional callback ``(src_rank, dst_rank, nbytes)`` invoked for every
        point-to-point message, used by the perf model to account
        communication.
    """

    def __init__(
        self,
        decomp: Decomposition,
        ghost: int = 1,
        on_message: Callable[[int, int, int], None] | None = None,
    ):
        self.decomp = decomp
        self.ghost = int(ghost)
        self.on_message = on_message
        domain = decomp.spec.domain
        #: Per-rank memory extent: owned box expanded by the halo, clipped.
        self.extents: list[Box] = [
            b.expand(self.ghost).clip(domain) for b in decomp.boxes
        ]
        #: Local-array origins (ghost cells exist even outside the domain so
        #: that local arrays always have shape owned+2*ghost).
        self.origins: list[tuple[int, ...]] = [
            tuple(l - self.ghost for l in b.lo) for b in decomp.boxes
        ]
        # REPLACE routes: (src, dst, region) where region = dst extent ∩ src
        # box — i.e. dst's ghost voxels owned by src.
        self._replace_routes: list[tuple[int, int, Box]] = []
        # MAX routes: (src, dst, region) where region = extent ∩ extent.
        # Built from *extent* overlap, not box adjacency: when a subdomain is
        # thinner than the halo width, two ranks that are not box-neighbors
        # can both hold (and bid into) the same ghost voxel and must exchange
        # directly for one merge wave to be exact.
        self._max_routes: list[tuple[int, int, Box]] = []
        for dst in range(decomp.nranks):
            for src in range(decomp.nranks):
                if src == dst:
                    continue
                replace_region = decomp.boxes[src].intersect(self.extents[dst])
                if not replace_region.is_empty:
                    self._replace_routes.append((src, dst, replace_region))
                max_region = self.extents[src].intersect(self.extents[dst])
                if not max_region.is_empty:
                    self._max_routes.append((src, dst, max_region))

    @property
    def replace_routes(self) -> list[tuple[int, int, Box]]:
        """Public view of the REPLACE message routes ``(src, dst, region)``,
        where region = dst's ghost voxels owned by src.  SIMCoV-CPU uses the
        same geometry for its batched boundary-strip RPCs."""
        return list(self._replace_routes)

    def pull_plan(self, rank: int) -> RankPullPlan:
        """Serialize ``rank``'s side of every wave as a picklable pull plan.

        The plan carries the same REPLACE and MAX route geometry
        :meth:`exchange` executes, restricted to routes terminating at
        ``rank`` — a detached worker holding (shared-memory views of) the
        per-rank arrays can reproduce the exchange without this object.
        """
        return RankPullPlan(
            rank=rank,
            origins=tuple(self.origins),
            replace=tuple(
                PullRoute(src, region.lo, region.hi)
                for src, dst, region in self._replace_routes
                if dst == rank
            ),
            max_merge=tuple(
                PullRoute(src, region.lo, region.hi)
                for src, dst, region in self._max_routes
                if dst == rank
            ),
        )

    # -- array helpers -----------------------------------------------------

    def local_shape(self, rank: int) -> tuple[int, ...]:
        """Shape of a rank's local array (owned + 2*ghost per dim)."""
        return tuple(s + 2 * self.ghost for s in self.decomp.boxes[rank].shape)

    def owned_slices(self, rank: int) -> tuple[slice, ...]:
        """Slices selecting the owned interior of a local array."""
        return self.decomp.boxes[rank].slices_from(self.origins[rank])

    def region_slices(self, rank: int, region: Box) -> tuple[slice, ...]:
        """Slices selecting a global region from ``rank``'s local array."""
        return region.slices_from(self.origins[rank])

    def allocate(self, rank: int, dtype, fill=0) -> np.ndarray:
        """A zero/fill-initialized local array with ghost layers."""
        return np.full(self.local_shape(rank), fill, dtype=dtype)

    # -- exchanges ----------------------------------------------------------

    def exchange(
        self, arrays: list[np.ndarray], mode: MergeMode = MergeMode.REPLACE
    ) -> None:
        """Perform one halo-exchange wave in place over per-rank arrays.

        ``arrays[rank]`` must have :meth:`local_shape`.  REPLACE copies owner
        boundaries into neighbor ghosts; MAX max-merges every overlapping
        strip (all-pairs among neighbors), making all copies of each voxel
        equal to the global elementwise maximum.
        """
        if len(arrays) != self.decomp.nranks:
            raise ValueError(
                f"need {self.decomp.nranks} arrays, got {len(arrays)}"
            )
        for rank, arr in enumerate(arrays):
            if arr.shape != self.local_shape(rank):
                raise ValueError(
                    f"rank {rank}: array shape {arr.shape} != "
                    f"local shape {self.local_shape(rank)}"
                )
        if mode is MergeMode.REPLACE:
            routes = self._replace_routes
        else:
            routes = self._max_routes
        itemsize = arrays[0].dtype.itemsize
        # Snapshot the sent strips first: a real exchange sends pre-exchange
        # values; in-place sequential copying must not leak merged values.
        packets = []
        for src, dst, region in routes:
            payload = arrays[src][self.region_slices(src, region)].copy()
            packets.append((src, dst, region, payload))
            if self.on_message is not None:
                self.on_message(src, dst, payload.size * itemsize)
        for src, dst, region, payload in packets:
            view = arrays[dst][self.region_slices(dst, region)]
            if mode is MergeMode.REPLACE:
                view[...] = payload
            else:
                np.maximum(view, payload, out=view)

    # -- verification helpers -------------------------------------------------

    def gather_global(self, arrays: list[np.ndarray]) -> np.ndarray:
        """Assemble the global array from owned interiors (test/IO helper)."""
        out = np.zeros(self.decomp.spec.shape, dtype=arrays[0].dtype)
        for rank, arr in enumerate(arrays):
            box = self.decomp.boxes[rank]
            out[box.slices_from((0,) * box.ndim)] = arr[self.owned_slices(rank)]
        return out

    def scatter_global(self, global_array: np.ndarray) -> list[np.ndarray]:
        """Split a global array into per-rank local arrays (ghosts filled by
        one REPLACE exchange; out-of-domain ghosts zero)."""
        arrays = []
        for rank in range(self.decomp.nranks):
            arr = self.allocate(rank, global_array.dtype)
            ext = self.extents[rank]
            arr[self.region_slices(rank, ext)] = global_array[
                ext.slices_from((0,) * ext.ndim)
            ]
            arrays.append(arr)
        return arrays
