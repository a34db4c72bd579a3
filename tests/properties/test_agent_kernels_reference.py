"""Property test: the flat-index agent kernels are the per-axis ones.

``core.kernels.tcell_intents``, ``resolve_moves`` (``compute_moves`` +
``commit_moves``) and ``resolve_binds`` address every agent by one linear
index into the padded arrays, draw bind-select words for binders only and
direction words for movers only, and merge bids with one scatter-max
(``np.maximum.at``).  The reference below is the formulation they
replaced, spelled out: one index vector per axis (a leading member axis
included), fancy indexing through the tuple, a draw of every stream for
*every* agent with the unrestricted modulus, and the atomic max emulated
by one masked pass per direction.  Both must leave all five intent
fields, every block field and the returned tallies bit-for-bit equal.

The draws are dense on purpose — half the voxels hold a T cell, one
tissue voxel in twelve is expressing (so about half the agents bind and
half move), ghosts filled like the interior — so that
several agents bid on one target from different directions, the same
spatial voxel is bid on in different members of a batch, and agents on
the region's edge bid into the ghost ring (a sub-domain block's ghosts lie
inside the domain); ``test_the_draws_collide`` pins that down for one
seed.  Regions are ragged: an arbitrary box of the interior (and member
range) for the intents, another for the resolution, so sources lie both
inside and outside the resolved region.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core import kernels
from repro.core.params import SimCovParams
from repro.core.state import BINDABLE, EnsembleBlock, EpiState, VoxelBlock
from repro.grid.box import Box
from repro.grid.spec import GridSpec, moore_offsets
from repro.rng.streams import EnsembleRNG, Stream, VoxelRNG

FAST = settings(max_examples=60, deadline=None)
PARAMS = SimCovParams.fast_test(dim=(8, 8))
INTENT_FIELDS = tuple(kernels.IntentArrays.FIELD_DTYPES)
BLOCK_FIELDS = tuple(VoxelBlock.FIELD_DTYPES)


# -- the reference: per-axis index tuples, per-direction loops -------------------

def ref_agents(mask, region):
    return tuple(i + s.start for i, s in zip(np.nonzero(mask), region))


def ref_pick(at, keep):
    return tuple(i[keep] for i in at)


def ref_offset(at, offs):
    """``at`` moved by spatial offsets; a leading member vector is kept."""
    lead = len(at) - offs.shape[-1]
    return at[:lead] + tuple(i + offs[..., d] for d, i in enumerate(at[lead:]))


def ref_members(at, block):
    return at[0] if len(at) > block.spec.ndim else None


def ref_tally(at, region, block):
    members = ref_members(at, block)
    if members is None:
        return len(at[0])
    lo, hi = region[0].start, region[0].stop
    return np.bincount(members - lo, minlength=hi - lo)


def ref_scatter_max(target, at, direction, offsets, bids):
    """Within one direction all targets are distinct: a masked max each."""
    for k in range(len(offsets)):
        mask = direction == k
        tgt = ref_offset(ref_pick(at, mask), offsets[k])
        target[tgt] = np.maximum(target[tgt], bids[mask])


def ref_intents(rng, step, block, intents, region):
    at = ref_agents(
        (block.tcell[region] != 0) & (block.tcell_bound_time[region] == 0), region
    )
    if len(at[0]) == 0:
        return
    members = ref_members(at, block)
    gid = block.gid[at]
    bids = rng.bids(step, gid, member=members)
    stencil = kernels.bind_stencil(block.spec.ndim)
    offsets = moore_offsets(block.spec.ndim)

    nb_state = block.epi_state[ref_offset(tuple(i[:, None] for i in at), stencil[None])]
    bindable = np.isin(nb_state, BINDABLE)
    n_candidates = bindable.sum(axis=-1)
    binder = n_candidates > 0
    j = rng.words(Stream.TCELL_BIND_SELECT, step, gid, member=members) % np.maximum(
        n_candidates.astype(np.uint64), 1
    )
    sel = np.argmax(np.cumsum(bindable, axis=-1) == (j.astype(np.int64) + 1)[:, None], axis=-1)
    src = ref_pick(at, binder)
    intents.bind_dir[src] = sel[binder]
    intents.bid_self[src] = bids[binder]
    ref_scatter_max(intents.bind_bid, src, sel[binder], stencil, bids[binder])

    k_choice = rng.randint(Stream.TCELL_DIRECTION, step, gid, len(offsets), member=members)
    tgt = ref_offset(at, offsets[k_choice])
    ok = ~binder & (block.tcell[tgt] == 0) & block.in_domain[tgt]
    src = ref_pick(at, ok)
    intents.move_dir[src] = k_choice[ok]
    intents.bid_self[src] = bids[ok]
    ref_scatter_max(intents.move_bid, src, k_choice[ok], offsets, bids[ok])


def ref_resolve_moves(block, intents, region):
    offsets = moore_offsets(block.spec.ndim)
    out = ref_agents(intents.move_dir[region] >= 0, region)
    tgt_max = intents.move_bid[ref_offset(out, offsets[intents.move_dir[out].astype(np.int64)])]
    moved_out = ref_pick(out, (intents.bid_self[out] == tgt_max) & (tgt_max > 0))
    bid_on = ref_agents(intents.move_bid[region] > 0, region)
    src = ref_offset(tuple(i[:, None] for i in bid_on), -offsets[None])
    src_won = (intents.move_dir[src] == np.arange(len(offsets))[None]) & (
        intents.bid_self[src] == intents.move_bid[bid_on][:, None]
    )
    arrived = src_won.any(axis=-1)
    arriving = ref_pick(bid_on, arrived)
    first = np.argmax(src_won, axis=-1)[arrived]
    new_life = block.tcell_tissue_time[ref_offset(arriving, -offsets[first])]
    block.tcell[moved_out] = 0
    block.tcell_tissue_time[moved_out] = 0
    block.tcell_bound_time[moved_out] = 0
    block.tcell[arriving] = 1
    block.tcell_tissue_time[arriving] = new_life
    block.tcell_bound_time[arriving] = 0
    return ref_tally(arriving, region, block)


def ref_resolve_binds(params, rng, step, block, intents, region):
    stencil = kernels.bind_stencil(block.spec.ndim)
    bid_on = ref_agents(intents.bind_bid[region] > 0, region)
    bound = ref_pick(bid_on, np.isin(block.epi_state[bid_on], BINDABLE))
    if len(bound[0]):
        block.epi_state[bound] = EpiState.APOPTOTIC
        block.epi_timer[bound] = np.maximum(
            1,
            rng.poisson(
                Stream.APOPTOSIS_PERIOD, step, block.gid[bound],
                params.apoptosis_period, member=ref_members(bound, block),
            ),
        )
    mine = ref_agents(intents.bind_dir[region] >= 0, region)
    tgt_max = intents.bind_bid[
        ref_offset(mine, stencil[intents.bind_dir[mine].astype(np.int64)])
    ]
    won = ref_pick(mine, (intents.bid_self[mine] == tgt_max) & (tgt_max > 0))
    block.tcell_bound_time[won] = params.tcell_binding_period
    return ref_tally(bound, region, block)


# -- worlds ------------------------------------------------------------------------

def make_world(dim, owned, batch, fill_seed):
    """A block (solo, or batched when ``batch``) over ``owned`` with every
    padded voxel — ghosts too — filled at random, and its rng."""
    spec = GridSpec(dim)
    rs = np.random.default_rng(fill_seed)
    if batch:
        block = EnsembleBlock(spec, owned, batch)
        rng = EnsembleRNG(rs.integers(0, 2**31, size=batch))
    else:
        block = VoxelBlock(spec, owned)
        rng = VoxelRNG(int(rs.integers(0, 2**31)))
    shape = block.shape
    block.epi_state[...] = rs.choice(
        [EpiState.EMPTY, EpiState.HEALTHY, EpiState.INCUBATING,
         EpiState.EXPRESSING, EpiState.APOPTOTIC, EpiState.DEAD],
        p=[0.05, 0.57, 0.1, 0.08, 0.1, 0.1], size=shape,
    )
    block.epi_timer[...] = rs.integers(0, 20, size=shape)
    present = rs.random(shape) < 0.5
    block.tcell[...] = present
    block.tcell_tissue_time[...] = present * rs.integers(1, 50, size=shape)
    block.tcell_bound_time[...] = present * rs.integers(0, 3, size=shape) * (
        rs.random(shape) < 0.2
    )
    return block, rng


def copy_world(block):
    twin = (
        EnsembleBlock(block.spec, block.owned, block.batch)
        if isinstance(block, EnsembleBlock) else VoxelBlock(block.spec, block.owned)
    )
    for name in BLOCK_FIELDS:
        getattr(twin, name)[...] = getattr(block, name)
    return twin


@st.composite
def worlds(draw):
    ndim = draw(st.sampled_from([2, 3]))
    hi_side = 9 if ndim == 2 else 5
    dim = tuple(draw(st.integers(min_value=3, max_value=hi_side)) for _ in range(ndim))
    # A sub-domain block has in-domain ghosts on the sides it does not
    # share with the domain boundary.
    lo = tuple(draw(st.integers(min_value=0, max_value=n - 2)) for n in dim)
    hi = tuple(draw(st.integers(min_value=l + 2, max_value=n)) for l, n in zip(lo, dim))
    batch = draw(st.sampled_from([0, 1, 3]))
    block, rng = make_world(dim, Box(lo, hi), batch, draw(st.integers(0, 2**31)))

    def box_in(interior):
        out = []
        for s in interior:
            stop = s.stop if s.stop is not None else block.batch
            a = draw(st.integers(min_value=s.start or 0, max_value=stop - 1))
            out.append(slice(a, draw(st.integers(min_value=a + 1, max_value=stop))))
        return tuple(out)

    return block, rng, box_in(block.interior), box_in(block.interior), draw(st.integers(0, 500))


def run_both(block, rng, r_intents, r_resolve, step):
    """(new, reference) outcomes: intents, block fields, tallies."""
    outcomes = []
    for reference in (False, True):
        blk = copy_world(block)
        intents = kernels.IntentArrays(blk.shape)
        if reference:
            ref_intents(rng, step, blk, intents, r_intents)
        else:
            kernels.tcell_intents(PARAMS, rng, step, blk, intents, r_intents)
        placed = {name: getattr(intents, name).copy() for name in INTENT_FIELDS}
        if reference:
            moved = ref_resolve_moves(blk, intents, r_resolve)
            bound = ref_resolve_binds(PARAMS, rng, step, blk, intents, r_resolve)
        else:
            moved = kernels.resolve_moves(blk, intents, r_resolve)
            bound = kernels.resolve_binds(PARAMS, rng, step, blk, intents, r_resolve)
        for name in INTENT_FIELDS:  # resolution only reads them
            assert np.array_equal(getattr(intents, name), placed[name]), name
        outcomes.append((placed, {n: getattr(blk, n) for n in BLOCK_FIELDS}, moved, bound))
    return outcomes


def assert_same(new, ref):
    for name in INTENT_FIELDS:
        assert np.array_equal(new[0][name], ref[0][name]), name
    for name in BLOCK_FIELDS:
        assert np.array_equal(new[1][name], ref[1][name]), name
    for got, want in zip(new[2:], ref[2:]):
        assert np.shape(got) == np.shape(want) and np.array_equal(got, want)


@FAST
@given(worlds())
def test_flat_kernels_match_the_per_axis_reference(world):
    assert_same(*run_both(*world))


def test_the_draws_collide():
    """One fixed world of the family above really holds the three cases the
    reference comparison is there for (and passes it)."""
    block, rng = make_world((12, 12), Box((0, 2), (9, 12)), 3, fill_seed=4)
    region = tuple(slice(s.start or 0, s.stop or 3) for s in block.interior)
    new, ref = run_both(block, rng, region, region, step=9)
    assert_same(new, ref)
    placed = new[0]
    offsets = moore_offsets(2)
    movers = np.argwhere(placed["move_dir"] >= 0)
    targets = movers.copy()
    targets[:, 1:] += offsets[placed["move_dir"][tuple(movers.T)].astype(np.int64)]
    # Several bidders on one voxel, arriving from different directions.
    _, first, counts = np.unique(targets, axis=0, return_index=True, return_counts=True)
    assert counts.max() >= 2
    contested = targets[first[counts.argmax()]]
    dirs = placed["move_dir"][tuple(movers[(targets == contested).all(axis=1)].T)]
    assert len(set(dirs.tolist())) >= 2
    # The same spatial voxel bid on in different members.
    assert ((placed["move_bid"] > 0).sum(axis=0) >= 2).any()
    assert ((placed["bind_bid"] > 0).sum(axis=0) >= 2).any()
    # Bids placed in the ghost ring from the region's edge.
    ghost = np.ones(block.shape, dtype=bool)
    ghost[block.interior] = False
    assert (placed["move_bid"][ghost] > 0).any() and (placed["bind_bid"][ghost] > 0).any()
    # Something moved and something was bound in every member.
    assert (new[2] > 0).all() and (new[3] > 0).all()
