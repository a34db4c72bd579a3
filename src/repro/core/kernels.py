"""Vectorized update kernels shared by every execution backend.

Each kernel is a pure function over ghost-padded arrays and a region
selector, so the same code runs as:

- active-region updates of one undivided block — the sequential
  reference, or a whole ensemble stacked on a leading member axis (agents
  are flat indices and neighbour offsets use the spatial strides only, so
  no kernel knows which);
- per-rank updates between RPC waves (SIMCoV-CPU), or over a
  ``repro.dist`` rank's owned voxels and its ghost band after the one
  start-of-step pull;
- per-active-tile kernel launches between halo waves (SIMCoV-GPU).

All randomness is keyed by global voxel id (or attempt index), so results
are identical regardless of how the domain is decomposed — see
:mod:`repro.rng`.

Step order (the staged semantics of paper §4.1), by the phase of
:mod:`repro.engine.phases` that runs each kernel:

- ``age_extravasate``: T-cell aging, then extravasation (new T cells
  enter from the vasculature);
- ``intents``: bind/move target choice + bids (local);
- ``resolve``: apply winning moves and binds (local, deterministic: the
  §3.1 tiebreak);
- ``epithelial``: infection, state-timer transitions, production;
- ``diffuse``: diffusion + decay;
- ``reduce``: statistics reduction (:mod:`repro.core.stats`).

The paper's implementations exchange halos between some of these
(:mod:`repro.perf.work` counts those waves); a ``repro.dist`` rank pulls
its band once, before the step.
"""

from __future__ import annotations

import functools
import math
import operator
from collections.abc import Mapping

import numpy as np

from repro.core import native
from repro.core.params import SimCovParams
from repro.core.state import BINDABLE, CHEMOKINE_PRODUCERS, EpiState, VIRION_PRODUCERS, VoxelBlock
from repro.diffusion.stencil import decay_field, diffuse_region
from repro.grid.spec import moore_offsets
from repro.rng.streams import Stream, VoxelRNG


def _rng_members(rng, mask):
    """Batch indices of each True element of ``mask`` for member-keyed
    draws, or None for a solo (unbatched) rng.

    Fancy indexing like ``gid[mask]`` flattens the batch axis away; the
    returned vector re-identifies each element's member so EnsembleRNG can
    hash it with that member's seed.
    """
    if not getattr(rng, "batched", False):
        return None
    return np.nonzero(mask)[0]


def _member_param(value, members):
    """Per-element parameter for a member-indexed (flattened) update.

    ``value`` is either a plain scalar (uniform ensemble / solo run —
    returned unchanged, so the solo code path is untouched) or a
    :class:`~repro.core.params.ParamsStack` broadcast array shaped
    ``(B, 1, ..., 1)``; ``members`` the batch index of each flattened
    element (from :func:`_rng_members`, or a mask's nonzero batch axis).
    """
    if members is None or not isinstance(value, np.ndarray):
        return value
    return value.reshape(-1)[np.asarray(members)]


def _mask_members(value, mask, block):
    """Like :func:`_member_param` but keyed off the mask's extra axes:
    gathers per-member values for ``arr[mask]``-style updates when the
    block is batched and ``value`` varies across members."""
    if not isinstance(value, np.ndarray) or mask.ndim <= block.spec.ndim:
        return value
    return _member_param(value, np.nonzero(mask)[0])


@functools.lru_cache(maxsize=None)
def _flat_layout(shape: tuple[int, ...], ndim: int):
    """Flat addressing of C-contiguous padded arrays of ``shape``: element
    strides, the member stride (None on a solo block), and the flat-index
    offsets of the bind stencil and of the Moore neighbourhood in the
    trailing ``ndim`` (spatial) axes."""
    strides = tuple(math.prod(shape[d + 1:]) for d in range(len(shape)))
    spatial = np.array(strides[len(shape) - ndim:], dtype=np.int64)
    return (
        strides, strides[0] if len(shape) > ndim else None,
        bind_stencil(ndim) @ spatial, moore_offsets(ndim) @ spatial,
    )


def _flat(obj, *names):
    """1-D views of ``obj``'s named fields (C-contiguous, so writes through
    them land in the fields)."""
    return [getattr(obj, name).reshape(-1) for name in names]


def _agents(mask, region: tuple[slice, ...], strides):
    """Flat padded-array index (``int64``, ascending) of each True element
    of a mask taken over ``region``.

    The T-cell kernels find their agents with one mask over the region and
    then address every field by this one index per agent, so their cost
    follows the number of T cells, not the volume or the number of axes.
    """
    found = np.nonzero(mask.reshape(-1))[0]
    flat = found + sum(s.start * st for s, st in zip(region, strides))
    # Region-order -> padded index: each axis adds its padded stride less
    # what the axes inside it already counted, per step along it.
    inner = 1
    for a in range(mask.ndim - 1, 0, -1):
        inner *= mask.shape[a]
        pitch = strides[a - 1] - mask.shape[a] * strides[a]
        if pitch:
            flat += (found // inner) * pitch
    return flat


def _in_states(state, states):
    """Mask of the elements of ``state`` that equal one of ``states``."""
    return functools.reduce(operator.or_, (state == s for s in states))


def _members(flat, lead):
    """``(member, spatial)`` of flat indices: the member each lies in and
    its index within that member's slab, which addresses ``gid_spatial`` /
    ``in_domain_spatial``; ``(None, flat)`` on a solo block."""
    if lead is None:
        return None, flat
    member = flat // lead
    return member, flat - member * lead


def _tally(flat, region: tuple[slice, ...], lead, counted=None, shape=None):
    """Gathered elements counted: a scalar, or one count per member of
    ``region`` when the block is batched.  ``counted`` (padded slices of
    a solo block of ``shape``) counts only the elements inside it."""
    if counted is not None:
        at = np.unravel_index(flat, shape)
        return int(np.logical_and.reduce(
            [(a >= s.start) & (a < s.stop) for a, s in zip(at, counted)]
        ).sum()) if len(flat) else 0
    if lead is None:
        return len(flat)
    lo, hi = region[0].start, region[0].stop
    return np.bincount(flat // lead - lo, minlength=hi - lo)


def _winners(src, dirs, offs, bid_self, bids):
    """Those of ``src`` whose own bid is the merged maximum at the voxel
    their chosen direction points to (§3.1's tiebreak)."""
    tgt_max = bids[src + offs[dirs[src].astype(np.int64)]]
    return src[(bid_self[src] == tgt_max) & (tgt_max > 0)]


def _retime(rng, stream, step, block, at, period) -> None:
    """Fresh Poisson timers (at least 1) for the epithelial cells at flat
    indices ``at``, keyed by their gids like every draw."""
    if not len(at):
        return
    if (tier := native.tier()) is not None:
        return tier.retime(rng, stream, step, block, at, period)
    members, spatial = _members(at, _flat_layout(block.shape, block.spec.ndim)[1])
    drawn = rng.poisson(
        stream, step, block.gid_spatial.reshape(-1)[spatial],
        _member_param(period, members), member=members,
    )
    block.epi_timer.reshape(-1)[at] = np.maximum(1, drawn)


# ---------------------------------------------------------------------------
# age_extravasate: T-cell aging and extravasation
# ---------------------------------------------------------------------------


def tcell_age(block: VoxelBlock, region: tuple[slice, ...]) -> tuple[slice, ...] | None:
    """Decrement lifetimes; cells at end of tissue life die in place.  Returns the box
    (padded spatial slices, every member's) bounding the T cells left; None if none are."""
    if (tier := native.tier()) is not None:
        return tier.tcell_age(block, region)
    from repro.engine.activity import bounding_box  # late: repro.engine imports this module

    present = block.tcell[region] != 0
    tt = block.tcell_tissue_time[region]
    bt = block.tcell_bound_time[region]
    tt[present] -= 1
    bt[bt < 0] = 0
    bt[present & (bt > 0)] -= 1
    died = present & (tt <= 0)
    block.tcell[region][died] = 0
    tt[died] = 0
    bt[died] = 0
    return bounding_box(present & ~died,
                        [s.start for s in region[len(region) - block.spec.ndim:]])


class Attempts(Mapping):
    """One step's attempt schedule, read like the dict of arrays it draws
    (:func:`extravasation_attempts`) at its first read.  The compiled pass
    (``Tier.extravasate``) never reads it: it draws each attempt itself, as
    far as the attempt gets."""

    def __init__(self, params, rng: VoxelRNG, step: int, pool):
        self.params, self.rng, self.step, self.pool = params, rng, step, pool

    @functools.cached_property
    def counts(self) -> np.ndarray:
        """Attempts per member: the pool's flux, stochastically rounded."""
        x = np.atleast_1d(np.asarray(self.pool, dtype=np.float64)) * np.reshape(
            self.params.extravasate_fraction, -1)
        n, keys = np.floor(x), np.zeros((x.size, 1), dtype=np.int64)
        u = self.rng.uniform(Stream.POOL_ROUND, self.step, keys).reshape(-1)
        return n.astype(np.int64) + (u < x - n)

    @property
    def size(self) -> int:
        """The number of attempts, drawn or not."""
        return int(self.counts.sum())

    @functools.cached_property
    def _drawn(self) -> dict[str, np.ndarray]:
        params, rng, step, counts = self.params, self.rng, self.step, self.counts
        idx, member = np.arange(self.size, dtype=np.int64), None
        if np.ndim(self.pool):
            member = np.repeat(np.arange(counts.size, dtype=np.int64), counts)
            # Attempt indices restart at 0 within each member.
            idx -= (np.cumsum(counts) - counts)[member]
        if not idx.size:
            # Every step until the T-cell response begins: three draws of nothing.
            gid, accept_u, life = idx, np.empty(0), idx
        else:
            gid = rng.randint(Stream.EXTRAVASATE_SITE, step, idx, params.num_voxels, member=member)
            accept_u = rng.uniform(Stream.EXTRAVASATE_ACCEPT, step, idx, member=member)
            mu = _member_param(params.tcell_tissue_period, member)
            life = np.maximum(1, rng.poisson(Stream.TCELL_TISSUE_LIFE, step, idx, mu, member))
        out = {"gid": gid, "accept_u": accept_u, "life": life}
        if member is not None:
            out["member"] = member
        return out

    def __getitem__(self, key: str) -> np.ndarray:
        return self._drawn[key]

    def __iter__(self):
        return iter(self._drawn)

    def __len__(self) -> int:
        return len(self._drawn)


def extravasation_attempts(params, rng: VoxelRNG, step: int, pool) -> Attempts:
    """The global, decomposition-independent attempt schedule for one step.

    Every implementation computes the identical schedule and applies the
    attempts that land in voxels it owns.  Returns arrays indexed by
    attempt: target gid, acceptance roll, and tissue lifespan — drawn at
    the first read (:class:`Attempts`); ``.size`` counts them undrawn.

    ``pool`` is one vascular pool, or one per member of a batched ``rng``
    (``params`` then a :class:`~repro.core.params.ParamsStack`).  The
    batched schedule is one flat set of draws ordered by member, with each
    attempt's ``member`` index alongside; its ``member == b`` slice is
    bitwise the solo schedule of ``(params.member(b), seeds[b], pools[b])``.
    """
    return Attempts(params, rng, step, pool)


def _locate(block, gids: np.ndarray, region: tuple[slice, ...]):
    """Padded-array coordinates ``(n, ndim)`` of global voxel ids in
    ``block``'s spatial axes, and which of them lie inside ``region``
    (spatial slices).  Coordinates outside the region may lie outside the
    block as well."""
    at = block.spec.unravel(gids) - np.asarray(block.origin, dtype=np.int64)
    lo = np.array([s.start for s in region], dtype=np.int64)
    hi = np.array([s.stop for s in region], dtype=np.int64)
    return at, ((at >= lo) & (at < hi)).all(axis=1)


def apply_extravasation(
    params,
    block: VoxelBlock,
    attempts: Mapping[str, np.ndarray],
    region: tuple[slice, ...] | None = None,
    counted: tuple[slice, ...] | None = None,
):
    """Apply the attempts landing in this block's owned region.

    A T cell enters at the chosen voxel with probability equal to the local
    inflammatory-signal concentration (paper §2.2), provided the voxel holds
    no T cell yet.  The signal is read-only here, so the only coupling
    between attempts is a repeat on one voxel (of one member): the *first*
    accepting attempt in attempt order takes it — later ones would find it
    occupied — which resolves identically on every decomposition.  Returns
    the successful entries (the pool debit): a scalar, or a per-member
    vector on a batched block.

    ``region`` (default: the whole interior) restricts the search to an
    active sub-box.  That is bitwise-equivalent provided the region covers
    every voxel with signal >= ``min_chemokine``: an attempt outside it
    would land where the signal is sub-threshold and be rejected anyway,
    and no randomness is consumed here.  ``counted`` (a solo block's
    padded slices) restricts the returned tally to the entries inside it.
    An :class:`Attempts` schedule goes to the compiled pass when there is one.
    """
    region = block.interior if region is None else region
    if isinstance(attempts, Attempts) and (tier := native.tier()) is not None:
        return tier.extravasate(params, attempts, block, region, counted)
    ndim = block.spec.ndim
    strides, lead, _, _ = _flat_layout(block.shape, ndim)
    gids, member = attempts["gid"], attempts.get("member")
    if gids.size == 0:
        return _tally(gids, region, lead, counted, block.shape)
    at, mine = _locate(block, gids, region[len(region) - ndim:])
    # Attempts outside the block may not index it: gather the owned ones.
    own = np.nonzero(mine)[0]
    if own.size == 0:  # none lands in the region: no gather, unique or scatter
        return _tally(own, region, lead, counted, block.shape)
    flat = at[own] @ np.array(strides[len(strides) - ndim:], dtype=np.int64)
    if member is not None:
        member = member[own]
        flat += member * lead
    tcell, tissue_time, bound_time, chemokine = _flat(
        block, "tcell", "tcell_tissue_time", "tcell_bound_time", "chemokine"
    )
    signal = chemokine[flat]
    accepted = (
        (tcell[flat] == 0)
        & (signal >= _member_param(params.min_chemokine, member))
        & (attempts["accept_u"][own] < signal)
    )
    # np.unique returns first-occurrence indices: the earliest attempt.
    flat, first = np.unique(flat[accepted], return_index=True)
    tcell[flat] = 1
    tissue_time[flat] = attempts["life"][own[accepted][first]]
    bound_time[flat] = 0
    return _tally(flat, region, lead, counted, block.shape)


#: The name ``benchmarks/e2e/layers.py::KERNEL_SEAMS`` wraps, which only a
#: ``[benchmark]`` PR may edit; nothing under ``src/`` calls it.
ensemble_apply_extravasation = apply_extravasation


# ---------------------------------------------------------------------------
# intents: T-cell intents (choose + bid; paper §3.1 / Fig 2)
# ---------------------------------------------------------------------------


class IntentArrays:
    """Scratch arrays for one block's T-cell tiebreak round."""

    #: Dtype of every intent field; shared-memory arenas size segments
    #: from this.  Direction fields use -1 as the "no intent" sentinel.
    FIELD_DTYPES = {
        "move_dir": np.int8,
        "bind_dir": np.int8,
        "bid_self": np.uint64,
        "move_bid": np.uint64,
        "bind_bid": np.uint64,
    }

    def __init__(self, shape: tuple[int, ...]):
        #: Chosen movement direction index into moore_offsets, -1 = none.
        self.move_dir = np.full(shape, -1, dtype=np.int8)
        #: Chosen binding stencil index (0 = own voxel, 1.. = moore), -1 = none.
        self.bind_dir = np.full(shape, -1, dtype=np.int8)
        #: The T cell's own bid (0 where no bid was placed).
        self.bid_self = np.zeros(shape, dtype=np.uint64)
        #: Max bid placed on this voxel as a *move* target.
        self.move_bid = np.zeros(shape, dtype=np.uint64)
        #: Max bid placed on this voxel's epithelial cell as a *bind* target.
        self.bind_bid = np.zeros(shape, dtype=np.uint64)
        #: The slab holding every non-sentinel entry (None = whole array).
        self._dirty: tuple[slice, ...] | None = tuple(slice(0, 0) for _ in shape)

    def clear(self, written: tuple[slice, ...] | None = None) -> None:
        """Reset to the no-intent state.

        With ``written`` (padded-array slices: the T cells' box; ``()``
        for nothing) only the slab the last call marked is wiped — every
        entry written since lies in it — and the slab this step may write
        is marked: ``written`` grown by one voxel, since bids scatter one
        voxel outward.  Without, the whole array is wiped, and marked.
        Readers outside the slab always see sentinels, so full-array scans
        (e.g. the counted-work trace's) stay correct.
        """
        shape = self.move_dir.shape
        wipe = self._dirty
        if written is None or wipe is None:
            wipe = tuple(slice(None) for _ in shape)
        self.move_dir[wipe] = -1
        self.bind_dir[wipe] = -1
        self.bid_self[wipe] = 0
        self.move_bid[wipe] = 0
        self.bind_bid[wipe] = 0
        self._dirty = None if written is None else tuple(
            slice(max(0, s.start - 1), min(n, s.stop + 1)) if written else slice(0, 0)
            for s, n in zip(written or shape, shape)
        )

    #: Fields exchanged with REPLACE semantics (per-source-voxel data).
    REPLACE_FIELDS = ("move_dir", "bind_dir", "bid_self")
    #: Fields exchanged with MAX-merge semantics (per-target-voxel data).
    MAX_FIELDS = ("move_bid", "bind_bid")


def bind_stencil(ndim: int) -> np.ndarray:
    """Binding candidates: own voxel first, then the Moore neighborhood."""
    return np.concatenate(
        [np.zeros((1, ndim), dtype=np.int64), moore_offsets(ndim)], axis=0
    )


def tcell_intents(
    params: SimCovParams,
    rng: VoxelRNG,
    step: int,
    block: VoxelBlock,
    intents: IntentArrays,
    region: tuple[slice, ...],
) -> None:
    """Compute bind/move choices and bids for unbound T cells in ``region``.

    A T cell with a bindable (expressing) epithelial cell in its own voxel
    or Moore neighborhood attempts to bind one of them (chosen uniformly);
    otherwise it attempts to move to a uniformly random Moore neighbor,
    unless that neighbor is outside the domain or already occupied at the
    start of the phase — T cells "can and do run into each other" (§3.1).

    Bids are written at the T cell's own voxel (``bid_self``) and
    max-merged at the target (``move_bid``/``bind_bid``), the two stores of
    the paper's single-communication tiebreak.
    """
    if (tier := native.tier()) is not None:
        return tier.tcell_intents(rng, step, block, intents, region)
    strides, lead, boff, moff = _flat_layout(block.shape, block.spec.ndim)
    at = _agents(
        (block.tcell[region] != 0) & (block.tcell_bound_time[region] == 0),
        region, strides,
    )
    if len(at) == 0:
        return
    members, spatial = _members(at, lead)
    gid = block.gid_spatial.reshape(-1)[spatial]
    bids = rng.bids(step, gid, member=members)
    move_dir, bind_dir, bid_self, move_bid, bind_bid = _flat(
        intents, "move_dir", "bind_dir", "bid_self", "move_bid", "bind_bid"
    )

    # --- binding choice ----------------------------------------------------
    # One gather of every agent's stencil: (stencil, agents) states.
    bindable = _in_states(
        np.take(block.epi_state.reshape(-1), boff[:, None] + at), BINDABLE
    )
    binder = bindable.any(axis=0)
    b = np.nonzero(binder)[0]
    if len(b):
        # Draws are keyed by gid, so drawing for the binders alone draws
        # what drawing for everyone would have given them.
        src, candidates = at[b], bindable[:, b]
        j = rng.words(
            Stream.TCELL_BIND_SELECT, step, gid[b], member=_members(src, lead)[0]
        ) % candidates.sum(axis=0).astype(np.uint64)
        # Index of the (j+1)-th True along the stencil axis.
        cum = np.cumsum(candidates, axis=0)
        sel = np.argmax(cum == j.astype(np.int64) + 1, axis=0)
        bind_dir[src] = sel.astype(np.int8)
        bid_self[src] = bids[b]
        # The paper's atomicMax at the target: order-free by construction.
        np.maximum.at(bind_bid, src + boff[sel], bids[b])

    # --- movement choice -------------------------------------------------------
    m = np.nonzero(~binder)[0]
    if len(m):
        src = at[m]
        members, spatial = _members(src, lead)
        k_choice = rng.randint(
            Stream.TCELL_DIRECTION, step, gid[m], len(moff), member=members
        )
        step_to = moff[k_choice.astype(np.int64)]
        # Blocked: target occupied at the start of the phase, or outside.
        ok = (block.tcell.reshape(-1)[src + step_to] == 0) & (
            block.in_domain_spatial.reshape(-1)[spatial + step_to]
        )
        src, placed = src[ok], bids[m[ok]]
        move_dir[src] = k_choice[ok].astype(np.int8)
        bid_self[src] = placed
        np.maximum.at(move_bid, src + step_to[ok], placed)


# ---------------------------------------------------------------------------
# resolve: winner moves / binds (fully local & deterministic)
# ---------------------------------------------------------------------------


class MoveSet:
    """One region's resolved moves: the 'set flips' of Fig 2 — who leaves,
    who arrives, and the arriving payload — computed against pristine state
    so that commits can happen in any order (Jacobi semantics, as one GPU
    kernel launch over all tiles would behave).  ``moved_out`` and
    ``arriving`` are flat padded-array index vectors (opaque to callers),
    ``new_life`` the tissue time each arrival carries."""

    __slots__ = ("region", "moved_out", "arriving", "new_life")

    def __init__(self, region, moved_out, arriving, new_life):
        self.region = region
        self.moved_out = moved_out
        self.arriving = arriving
        self.new_life = new_life


def compute_moves(
    block: VoxelBlock,
    intents: IntentArrays,
    region: tuple[slice, ...],
) -> MoveSet:
    """Assign winners within ``region`` (owned voxels) — read-only.

    A T cell moves iff its bid equals the merged maximum at its target —
    the deterministic tiebreak every device computes identically (§3.1):
    the winner's source device erases it, the target's owner instantiates
    it, no duplication and no loss.
    """
    if (tier := native.tier()) is not None:
        return tier.compute_moves(block, intents, region)
    strides, _, _, moff = _flat_layout(block.shape, block.spec.ndim)
    move_dir, bid_self, move_bid = _flat(intents, "move_dir", "bid_self", "move_bid")
    # Outgoing: my cells that won their bid at the target.
    out = _agents(intents.move_dir[region] >= 0, region, strides)
    moved_out = _winners(out, move_dir, moff, bid_self, move_bid)
    # Incoming: neighbor cells (possibly ghosts) that won a bid on my voxel;
    # per bid-on voxel, the (directions, voxels) table of its sources.
    bid_on = _agents(intents.move_bid[region] > 0, region, strides)
    src = bid_on - moff[:, None]
    src_won = (np.take(move_dir, src) == np.arange(len(moff))[:, None]) & (
        np.take(bid_self, src) == move_bid[bid_on]
    )
    arrived = src_won.any(axis=0)
    arriving = bid_on[arrived]
    # The first winning direction supplies the payload.
    first = np.argmax(src_won[:, arrived], axis=0)
    new_life = block.tcell_tissue_time.reshape(-1)[arriving - moff[first]]
    return MoveSet(region, moved_out, arriving, new_life)


def commit_moves(block: VoxelBlock, moves: MoveSet, counted=None):
    """Execute one region's flips: erase movers-out, instantiate arrivals.
    Must run only after *all* regions' :func:`compute_moves` finished (the
    separate 'Move Agents' kernel of Fig 2).  Returns arrivals — a scalar,
    or a per-member vector on a batched block; only those inside
    ``counted`` when given (a solo block's padded slices)."""
    fields = _flat(block, "tcell", "tcell_tissue_time", "tcell_bound_time")
    for field, arrives_with in zip(fields, (1, moves.new_life, 0)):
        field[moves.moved_out] = 0
        field[moves.arriving] = arrives_with
    lead = _flat_layout(block.shape, block.spec.ndim)[1]
    return _tally(moves.arriving, moves.region, lead, counted, block.shape)


def resolve_moves(
    block: VoxelBlock,
    intents: IntentArrays,
    region: tuple[slice, ...],
    counted: tuple[slice, ...] | None = None,
):
    """The ``resolve`` phase's moves: every winner in ``region`` is chosen
    (:func:`compute_moves`) before any cell moves (:func:`commit_moves`).
    ``region`` is the one region a block steps — solo, batched or a dist
    rank's owned voxels and band — so no other region's commit can race
    this one's choice."""
    return commit_moves(block, compute_moves(block, intents, region), counted)


def resolve_binds(
    params: SimCovParams,
    rng: VoxelRNG,
    step: int,
    block: VoxelBlock,
    intents: IntentArrays,
    region: tuple[slice, ...],
    counted: tuple[slice, ...] | None = None,
):
    """Apply winning binds: the bound epithelial cell turns apoptotic with a
    fresh Poisson timer; the winning T cell is held for the binding period.
    Returns the number of cells driven apoptotic in the region — a scalar,
    or a per-member vector on a batched block; only those inside
    ``counted`` when given (a solo block's padded slices)."""
    strides, lead, boff, _ = _flat_layout(block.shape, block.spec.ndim)
    if (tier := native.tier()) is not None:
        bound = tier.resolve_binds(params, block, intents, region)
        _retime(rng, Stream.APOPTOSIS_PERIOD, step, block, bound, params.apoptosis_period)
        return _tally(bound, region, lead, counted, block.shape)
    bind_dir, bid_self, bind_bid = _flat(intents, "bind_dir", "bid_self", "bind_bid")
    epi_state, bound_time = _flat(block, "epi_state", "tcell_bound_time")
    # Epithelial side: any expressing cell with a positive merged bind bid
    # was won by exactly one T cell.
    bid_on = _agents(intents.bind_bid[region] > 0, region, strides)
    bound = bid_on[_in_states(epi_state[bid_on], BINDABLE)]
    epi_state[bound] = EpiState.APOPTOTIC
    _retime(rng, Stream.APOPTOSIS_PERIOD, step, block, bound, params.apoptosis_period)
    # T-cell side: my cells that won their bind enter the bound state.
    mine = _agents(intents.bind_dir[region] >= 0, region, strides)
    won = _winners(mine, bind_dir, boff, bid_self, bind_bid)
    bound_time[won] = _member_param(
        params.tcell_binding_period, _members(won, lead)[0]
    )
    return _tally(bound, region, lead, counted, block.shape)


# ---------------------------------------------------------------------------
# epithelial: infection, state timers, production
# ---------------------------------------------------------------------------


def epithelial_update(
    params: SimCovParams,
    rng: VoxelRNG,
    step: int,
    block: VoxelBlock,
    region: tuple[slice, ...],
) -> None:
    """Infection of healthy cells and state-timer transitions."""
    if (tier := native.tier()) is not None:
        # One compiled pass; the few cells that changed state draw their
        # timers from the same exact sampler as below, keyed by gid.
        infected, expressing = tier.epithelial(params, rng, step, block, region)
        _retime(rng, Stream.INCUBATION_PERIOD, step, block, infected, params.incubation_period)
        _retime(rng, Stream.EXPRESSING_PERIOD, step, block, expressing, params.expressing_period)
        return
    state = block.epi_state[region]
    timer = block.epi_timer[region]
    gid = block.gid[region]
    # Snapshot: a cell makes at most one transition per step.
    state0 = state.copy()
    # Infection: p = infectivity * local virion concentration.
    healthy = state0 == EpiState.HEALTHY
    if healthy.any():
        p = params.infectivity * block.virions[region]
        roll = rng.uniform(Stream.INFECTION, step, gid)
        infected = healthy & (roll < p)
        if infected.any():
            members = _rng_members(rng, infected)
            state[infected] = EpiState.INCUBATING
            timer[infected] = np.maximum(
                1,
                rng.poisson(
                    Stream.INCUBATION_PERIOD, step, gid[infected],
                    _member_param(params.incubation_period, members),
                    member=members,
                ),
            )
    # Timer transitions (decrement happens in the state held at step start).
    for from_state, stream, period, to_state in (
        (EpiState.INCUBATING, Stream.EXPRESSING_PERIOD,
         params.expressing_period, EpiState.EXPRESSING),
        (EpiState.EXPRESSING, None, None, EpiState.DEAD),
        (EpiState.APOPTOTIC, None, None, EpiState.DEAD),
    ):
        in_state = state0 == from_state
        if not in_state.any():
            continue
        timer[in_state] -= 1
        expired = in_state & (timer <= 0)
        if not expired.any():
            continue
        state[expired] = to_state
        if stream is not None:
            members = _rng_members(rng, expired)
            timer[expired] = np.maximum(
                1,
                rng.poisson(
                    stream, step, gid[expired],
                    _member_param(period, members), member=members,
                ),
            )
        else:
            timer[expired] = 0


def production_update(
    params: SimCovParams,
    block: VoxelBlock,
    region: tuple[slice, ...],
    step: int = 0,
) -> None:
    """Infected cells emit virions; detectable cells emit the signal.
    Concentrations are per-voxel fractions clamped to [0, 1].  Production
    is antiviral-adjusted when an intervention is configured ([25])."""
    if (tier := native.tier()) is not None:
        return tier.production(params, block, region, step)
    state = block.epi_state[region]
    producing = _in_states(state, VIRION_PRODUCERS)
    if producing.any():
        v = block.virions[region]
        v[producing] = np.minimum(
            1.0,
            v[producing]
            + _mask_members(params.virion_production_at(step), producing, block),
        )
    signaling = _in_states(state, CHEMOKINE_PRODUCERS)
    if signaling.any():
        c = block.chemokine[region]
        c[signaling] = np.minimum(
            1.0,
            c[signaling]
            + _mask_members(params.chemokine_production, signaling, block),
        )


# ---------------------------------------------------------------------------
# diffuse: concentrations (diffusion + decay)
# ---------------------------------------------------------------------------


def concentration_update(
    params: SimCovParams,
    block: VoxelBlock,
    region: tuple[slice, ...],
    scratch_virions: np.ndarray,
    scratch_chemokine: np.ndarray,
) -> None:
    """Diffuse both fields over ``region`` into scratch buffers.

    Ghosts must hold neighbor values (halo-exchanged, or mirrored at the
    domain boundary) before calling.  Call :func:`concentration_commit`
    after all regions are processed (Jacobi semantics).
    """
    if (tier := native.tier()) is not None:
        return tier.diffuse(params, block, region, scratch_virions, scratch_chemokine)
    ndim = block.spec.ndim
    diffuse_region(
        block.virions, scratch_virions, region, params.virion_diffusion,
        spatial_ndim=ndim,
    )
    diffuse_region(
        block.chemokine, scratch_chemokine, region, params.chemokine_diffusion,
        spatial_ndim=ndim,
    )


def concentration_commit(
    params: SimCovParams,
    block: VoxelBlock,
    regions: list[tuple[slice, ...]],
    scratch_virions: np.ndarray,
    scratch_chemokine: np.ndarray,
    step: int = 0,
) -> None:
    """Copy scratch results back and apply decay + the signal threshold.
    Clearance is antibody-adjusted when an intervention is configured."""
    if (tier := native.tier()) is not None:
        return tier.commit(params, block, regions, scratch_virions, scratch_chemokine, step)
    for region in regions:
        v = block.virions[region]
        v[...] = scratch_virions[region]
        decay_field(v, params.virion_clearance_at(step))
        c = block.chemokine[region]
        c[...] = scratch_chemokine[region]
        decay_field(c, params.chemokine_decay)
        c[c < params.min_chemokine] = 0.0


def mirror_fields(
    block: VoxelBlock,
    region: tuple[slice, ...] | None = None,
    written: tuple[slice, ...] | None = None,
) -> None:
    """No-flux boundary: mirror the field ghosts that fall outside the
    domain — every such face without a ``region``, else only the faces
    whose edge layer ``region`` (this step's) or ``written`` (the region
    the last mirror was made for: its step's commit wrote after it)
    reaches.  Kernels write the fields only inside their step's region, so
    every other face's edge is as its last mirror left it, and so are its
    ghosts: each ghost holds what a whole mirror gives (DESIGN.md §4)."""
    faces = _faces(block, region, written)
    if not faces:
        return
    if (tier := native.tier()) is not None:
        return tier.mirror(block, faces)
    g, lead = block.ghost, block.epi_state.ndim - block.spec.ndim
    for field in (block.virions, block.chemokine):
        for axis, n in enumerate(field.shape[lead:]):
            for side, (ghosts, edge) in enumerate(((0, g), (n - g, n - g - 1))):
                if faces >> (2 * axis + side) & 1:
                    at = (slice(None),) * (lead + axis)
                    field[at + (slice(ghosts, ghosts + g),)] = field[at + (slice(edge, edge + 1),)]


def _faces(block, region, written) -> int:
    """The out-of-domain ghost faces (bit ``2a``: spatial axis ``a``'s low
    face, ``2a + 1``: its high one) whose edge layer ``region`` or
    ``written`` reaches; all of them when ``region`` is None."""
    g, nd, owned = block.ghost, block.spec.ndim, block.owned
    faces = 0
    for a, n in enumerate(block.shape[-nd:]):
        outside = (owned.lo[a] == 0) << 2 * a | (owned.hi[a] == block.spec.shape[a]) << 2 * a + 1
        if region is None:
            faces |= outside
        for r in (region, written):
            if r is not None:
                faces |= ((r[a - nd].start <= g) << 2 * a | (r[a - nd].stop >= n - g) << 2 * a + 1
                          ) & outside
    return faces
