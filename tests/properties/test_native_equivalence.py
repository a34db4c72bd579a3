"""Property test: the compiled tier leaves the numpy bodies' bits behind.

``tcell_age``, ``epithelial_update``, ``production_update``,
``concentration_update``, ``concentration_commit``, ``region_counts``,
the counter hash and the agent kernels ``tcell_intents``, ``compute_moves``
and ``resolve_binds`` each have a C body (``repro/core/_native.c``) that
the existing function dispatches to when ``native.tier()`` is there.  Each is
run once with ``native.tier`` patched to return None — the numpy body, the
reference — and once compiled, on copies of one block; every
``VoxelBlock.FIELD_DTYPES`` field, both scratch arrays, the returned counts
and the hash words must be equal bit for bit.

The draws aim at what a C spelling could get wrong: 2-D and 3-D, solo and
batched blocks (1-4 members), sub-domain blocks (ghosts inside the domain),
regions from one voxel to the whole interior (every member of a batch:
the numpy bodies take no member sub-range), an empty axis; uniform and
per-member (``ParamsStack``) rates; antiviral / antibody
start steps either side of the step; and field values on the edges of
every comparison — virions exactly 0, concentrations that production
saturates at exactly 1.0, timers at 1 and 0, negative ``tcell_bound_time``,
and scratch signal that decays to just below, exactly at and just above
``min_chemokine``.  ``test_the_edges_are_reached`` pins that down for one
world.  Mutation-checked (CHANGES.md, PR 21): two neighbour adds of the
diffusion swapped, ``<=`` for ``<`` at the threshold, ``>> 12`` in the
uniform and a ``-ffp-contract=fast -march=native`` build each fail it.
The agent kernels' cases (below) are mutation-checked the same way: the
scatter-max made a plain store, the j-th bindable cell for the (j+1)-th,
the last winning direction for the first, and bid 0 not reserved.

The gate sweep's two passes (``activity``, ``sweep_window``) get the same
worlds thinned to sparse activity.  The fused extravasation pass
(``Tier.extravasate``) is compared with the numpy body and with the
per-attempt loop of ``tests/core/test_kernels.py``, and the Poisson timers'
``Tier.retime`` with ``kernels._retime``'s numpy body; with ``_BAND``
widened, both send draws back to SciPy and must still agree.  Mutation-checked:
the last accepting attempt wins, ``<=`` for ``<`` on the acceptance roll,
the lifespan keyed by the wrong index, ``retime`` keyed by the wrong gid, and
the band fixup removed.  The last test fails if an entry point of
``native._NARGS`` has no fixed-world case here.
"""

import contextlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import kernels, native
from repro.core.params import ParamsStack, SimCovParams
from repro.core.state import EnsembleBlock, EpiState, VoxelBlock
from repro.core.stats import region_counts
from repro.engine.activity import ActivityGate
from repro.grid.box import Box
from repro.grid.spec import GridSpec
from repro.rng.philox import _M64, _MIX1_INT, _MIX2_INT, _PHI_INT, NATIVE_FROM
from repro.rng.streams import EnsembleRNG, Stream, VoxelRNG
from tests.core.test_kernels import loop_apply_extravasation

FAST = settings(max_examples=120, deadline=None)
BLOCK_FIELDS = tuple(VoxelBlock.FIELD_DTYPES)


@pytest.fixture(scope="module", autouse=True)
def _needs_the_compiled_tier():
    if native.tier() is None:
        pytest.skip(f"no compiled tier: {native.status()['reason']}")


# -- worlds ------------------------------------------------------------------------

def decays_to(target: float, keep: float) -> list[float]:
    """Scratch values whose decayed product ``s * keep`` lands just below,
    (where one exists within a few ulps) exactly at, and just above
    ``target``."""
    near = [target / keep]
    for _ in range(4):
        near = [np.nextafter(near[0], 0.0), *near, np.nextafter(near[-1], 1.0)]
    exact = [s for s in near if s * keep == target]
    below = max(s for s in near if s * keep < target)
    above = min(s for s in near if s * keep > target)
    return [below, above, *exact[:1]]


def member_params(dim, step, rs, starts):
    """One member's parameters: rates that put products and sums on exact
    values, intervention start steps relative to ``step``."""
    antiviral, antibody = starts
    return SimCovParams.fast_test(dim=dim).with_(
        infectivity=float(rs.choice([0.0, 0.3, 0.7, 1.0])),
        virion_production=float(rs.choice([0.25, 0.5, 1.1])),
        chemokine_production=float(rs.choice([0.25, 1.0])),
        virion_diffusion=float(rs.choice([0.0, 0.15, 0.2, 1.0])),
        chemokine_diffusion=float(rs.choice([0.3, 0.8, 1.0])),
        virion_clearance=float(rs.choice([0.0, 0.01, 0.3])),
        chemokine_decay=float(rs.choice([0.0, 0.02, 0.5])),
        min_chemokine=float(rs.choice([1e-5, 1e-6, 0.125])),
        incubation_period=int(rs.integers(1, 12)),
        expressing_period=int(rs.integers(1, 40)),
        antiviral_start=None if antiviral is None else step + antiviral,
        antibody_start=None if antibody is None else step + antibody,
    )


def make_world(dim, owned, batch, per_member, step, starts, fill_seed, occupancy=0.5,
               expressing=1.0):
    """A block (solo, or batched when ``batch``) over ``owned`` with every
    padded voxel — ghosts too — filled from the edge-heavy menus below, its
    rng, its params, and the two scratch arrays."""
    spec = GridSpec(dim)
    rs = np.random.default_rng(fill_seed)
    if batch:
        block = EnsembleBlock(spec, owned, batch)
        rng = EnsembleRNG(rs.integers(-(2**40), 2**40, size=batch))
        first = member_params(dim, step, rs, starts)
        params = ParamsStack(
            [first] + [
                member_params(dim, step, rs, starts) if per_member else first
                for _ in range(batch - 1)
            ]
        )
        lead = params.member(0)
    else:
        block = VoxelBlock(spec, owned)
        rng = VoxelRNG(int(rs.integers(-(2**40), 2**40)))
        lead = params = member_params(dim, step, rs, starts)
    shape = block.shape
    block.epi_state[...] = rs.integers(0, 6, size=shape)
    # Fewer expressing cells: fewer T cells bind, more contend for moves.
    thinned = (block.epi_state == EpiState.EXPRESSING) & (rs.random(shape) >= expressing)
    block.epi_state[thinned] = EpiState.HEALTHY
    block.epi_timer[...] = rs.choice([0, 1, 2, 3, 50], size=shape)
    # 0.75 + 0.25 and 0.5 + 0.5 are exactly 1.0; 0.9 + 0.25 saturates.
    menu = [0.0, 0.0, 1e-300, 0.3, 0.5, 0.75, 0.9, 1.0]
    block.virions[...] = np.where(
        rs.random(shape) < 0.5, rs.choice(menu, size=shape), rs.random(shape)
    )
    block.chemokine[...] = np.where(
        rs.random(shape) < 0.5, rs.choice(menu, size=shape), rs.random(shape)
    )
    block.tcell[...] = rs.random(shape) < occupancy
    block.tcell_tissue_time[...] = rs.choice([0, 1, 2, 50], size=shape)
    block.tcell_bound_time[...] = rs.choice([-2, -1, 0, 0, 1, 3], size=shape)
    # Scratch as a diffusion pass left it, with the signal seeded around
    # what the commit's decay takes to exactly the threshold.
    edges = decays_to(lead.min_chemokine, 1.0 - lead.chemokine_decay)
    scratch_v = rs.random(shape)
    scratch_c = np.where(
        rs.random(shape) < 0.5, rs.choice(edges, size=shape), rs.random(shape)
    )
    return block, rng, params, scratch_v, scratch_c


def copy_block(block):
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
    batch = draw(st.sampled_from([0, 1, 2, 3, 4]))
    step = draw(st.integers(min_value=1, max_value=500))
    starts = tuple(draw(st.sampled_from([None, -1, 0, 1])) for _ in range(2))
    world = make_world(
        dim, Box(lo, hi), batch, draw(st.booleans()), step, starts,
        draw(st.integers(0, 2**31)), draw(st.sampled_from([0.05, 0.5, 0.95])),
        draw(st.sampled_from([1.0, 0.05])),
    )
    block = world[0]
    kind = draw(st.sampled_from(["whole", "voxel", "ragged", "ragged", "empty"]))
    region = []
    for axis, (s, n) in enumerate(zip(block.interior, block.shape)):
        start, stop = s.indices(n)[:2]
        if kind != "whole" and axis >= len(block.shape) - ndim:
            start = draw(st.integers(min_value=start, max_value=stop - 1))
            stop = start + 1 if kind == "voxel" else draw(
                st.integers(min_value=start + 1, max_value=stop)
            )
            if kind == "empty" and axis == len(block.shape) - 1:
                stop = start
        region.append(slice(start, stop))
    return (*world, tuple(region), step)


# -- both tiers ----------------------------------------------------------------------

def on_tier(compiled: bool):
    """The compiled tier as found, or the numpy bodies alone."""
    if compiled:
        return contextlib.nullcontext()
    return mock.patch.object(native, "tier", lambda: None)


def run_tier(compiled: bool, block, rng, params, scratch_v, scratch_c, region, step):
    """Every entry point once, in step order, on copies; what it left."""
    blk, sv, sc = copy_block(block), scratch_v.copy(), scratch_c.copy()
    dv, dc = np.full(blk.shape, -1.0), np.full(blk.shape, -1.0)
    with on_tier(compiled):
        assert (native.tier() is not None) == compiled
        kernels.tcell_age(blk, region)
        kernels.epithelial_update(params, rng, step, blk, region)
        kernels.production_update(params, blk, region, step=step)
        kernels.concentration_update(params, blk, region, dv, dc)
        kernels.concentration_commit(params, blk, [region], sv, sc, step=step)
        counts = region_counts(blk, region)
        # Full-region draws, a strided key view, and the gathered form
        # with each key's member — small regions through the tiers' common
        # path below ``NATIVE_FROM`` keys, and once tiled past it.
        gid = blk.gid[region]
        words = [
            rng.words(Stream.INFECTION, step, gid),
            rng.words(Stream.TCELL_BID, step, gid[..., ::2]),
        ]
        if rng.batched:
            healthy = blk.epi_state[region] == EpiState.HEALTHY
            keys, members = gid[healthy], np.nonzero(healthy)[0]
            words.append(rng.words(Stream.TCELL_BID, step, keys, member=members))
            if len(keys):
                words.append(rng.words(
                    Stream.TCELL_BID, step, np.resize(keys, NATIVE_FROM + 3),
                    member=np.resize(members, NATIVE_FROM + 3),
                ))
        elif gid.size:
            words.append(rng.words(Stream.INFECTION, step, np.resize(gid, NATIVE_FROM + 3)))
    fields = {name: getattr(blk, name) for name in BLOCK_FIELDS}
    return fields, {"diffused_v": dv, "diffused_c": dc, "scratch_v": sv,
                    "scratch_c": sc}, counts, words


def assert_same(got, want):
    for g, w in zip(got[:2], want[:2]):
        for name in w:
            # Bit for bit: -0.0 is not 0.0 and NaN payloads count.
            assert g[name].dtype == w[name].dtype, name
            assert g[name].tobytes() == w[name].tobytes(), name
    assert got[2].dtype == want[2].dtype and got[2].shape == want[2].shape
    assert np.array_equal(got[2], want[2])
    for g, w in zip(got[3], want[3], strict=True):
        assert g.dtype == w.dtype and g.shape == w.shape and np.array_equal(g, w)


@FAST
@given(worlds())
def test_compiled_bodies_match_the_numpy_bodies(world):
    assert_same(run_tier(True, *world), run_tier(False, *world))


def test_the_edges_are_reached():
    """One fixed world of the family above really holds the cases the
    comparison is there for (and passes it)."""
    step = 40
    world = make_world(
        (9, 9), Box((0, 2), (9, 9)), 3, True, step, (-1, 1), fill_seed=3
    )
    block, _, params, _, scratch_c = world
    region = tuple(slice(*s.indices(n)[:2]) for s, n in zip(block.interior, block.shape))
    got = run_tier(True, *world, region, step)
    assert_same(got, run_tier(False, *world, region, step))
    fields, _, counts, _ = got
    before, after = block.epi_state[region], fields["epi_state"][region]
    # Infections, expiries with and without a redrawn timer, in one pass.
    for was, now in ((EpiState.HEALTHY, EpiState.INCUBATING),
                     (EpiState.INCUBATING, EpiState.EXPRESSING),
                     (EpiState.EXPRESSING, EpiState.DEAD),
                     (EpiState.APOPTOTIC, EpiState.DEAD)):
        assert ((before == was) & (after == now)).any(), (was, now)
    assert ((before == EpiState.HEALTHY) & (block.virions[region] == 0)).any()
    fresh = (before == EpiState.INCUBATING) & (after == EpiState.EXPRESSING)
    assert (fields["epi_timer"][region][fresh] >= 1).all()
    # The signal threshold from both sides, and exactly on it.
    floor = np.broadcast_to(params.min_chemokine, block.shape)[region]
    seeded, left = scratch_c[region], fields["chemokine"][region]
    assert ((seeded > 0) & (left == 0)).any() and (left == floor).any()
    assert ((left > floor) & (left < floor * 1.0001)).any()
    # T cells that died, and negative bound times clamped.
    assert ((block.tcell[region] != 0) & (fields["tcell"][region] == 0)).any()
    assert (block.tcell_bound_time[region] < 0).any()
    assert (fields["tcell_bound_time"][region] >= 0).all()
    assert counts.shape == (3, 6) and (counts.sum(axis=1) > 0).all()


def test_production_saturates_exactly():
    """``min(1.0, v + rate)`` on sums that are exactly 1.0, just under it
    and over it — the same bits from both tiers."""
    spec = GridSpec((4, 4))
    params = SimCovParams.fast_test(dim=(4, 4)).with_(
        virion_production=0.25, chemokine_production=0.5
    )
    virions = [0.75, float(np.nextafter(0.75, 0)), 0.9, 0.0]
    chemokine = [0.5, float(np.nextafter(0.25, 0)), 1.0, 0.0]
    results = []
    for compiled in (True, False):
        block = VoxelBlock(spec, spec.domain)
        block.epi_state[block.interior] = EpiState.EXPRESSING
        block.virions[1, 1:5] = virions
        block.chemokine[1, 1:5] = chemokine
        with on_tier(compiled):
            kernels.production_update(params, block, block.interior, step=0)
        results.append((block.virions.copy(), block.chemokine.copy()))
        assert block.virions[1, 1:5].tolist() == [min(1.0, v + 0.25) for v in virions]
        assert block.chemokine[1, 1:5].tolist() == [min(1.0, c + 0.5) for c in chemokine]
    assert results[0][0][1, 1:3].tolist() == [1.0, float(np.nextafter(1.0, 0))]
    for got, want in zip(*results):
        assert got.tobytes() == want.tobytes()


# -- the agent kernels -----------------------------------------------------------------

INTENT_FIELDS = tuple(kernels.IntentArrays.FIELD_DTYPES)


def crafted_intents(block, seed):
    """Intents no tiebreak round leaves: every voxel, ghosts too, with a
    direction and bids from ``{0, 1, 2, 3}``, so that bids tie and several
    directions win one target — what tells the first winning direction
    from the last, and a zero merged bid from a won one."""
    rs = np.random.default_rng(seed)
    nb = 27 if block.spec.ndim == 3 else 9
    intents = kernels.IntentArrays(block.shape)
    intents.move_dir[...] = rs.integers(-1, nb - 1, size=block.shape)
    intents.bind_dir[...] = rs.integers(-1, nb, size=block.shape)
    for name in ("bid_self", "move_bid", "bind_bid"):
        getattr(intents, name)[...] = rs.integers(0, 4, size=block.shape)
    return intents


def copy_intents(intents):
    twin = kernels.IntentArrays(intents.move_dir.shape)
    for name in INTENT_FIELDS:
        getattr(twin, name)[...] = getattr(intents, name)
    return twin


def grown(region, block):
    """``region`` one voxel wider in space, within the interior: where the
    single-block backend resolves what intents over ``region`` placed."""
    first = len(region) - block.spec.ndim
    return region[:first] + tuple(
        slice(max(s.start - 1, i.start), min(s.stop + 1, i.stop))
        for s, i in zip(region[first:], block.interior[first:])
    )


def run_agents(compiled: bool, block, rng, params, region, step, intents=None):
    """One tiebreak round on copies: intents over ``region`` (or the given
    ones), then moves and binds resolved over it grown by a voxel.  What
    every field, intent and returned vector holds after."""
    blk = copy_block(block)
    with on_tier(compiled):
        if intents is None:
            intents = kernels.IntentArrays(blk.shape)
            kernels.tcell_intents(params, rng, step, blk, intents, region)
        else:
            intents = copy_intents(intents)
        wider = grown(region, blk)
        moves = kernels.compute_moves(blk, intents, wider)
        binds = kernels.resolve_binds(params, rng, step, blk, intents, wider)
        arrived = kernels.commit_moves(blk, moves)
    arrays = {name: getattr(blk, name) for name in BLOCK_FIELDS}
    arrays.update({f"intents.{name}": getattr(intents, name) for name in INTENT_FIELDS})
    arrays.update({f"moves.{name}": getattr(moves, name)
                   for name in ("moved_out", "arriving", "new_life")})
    return arrays, (np.asarray(arrived), np.asarray(binds))


def assert_same_agents(got, want):
    for name, w in want[0].items():
        g = got[0][name]
        assert g.dtype == w.dtype and g.shape == w.shape, name
        assert g.tobytes() == w.tobytes(), name
    for g, w in zip(got[1], want[1]):
        assert g.dtype == w.dtype and g.shape == w.shape and np.array_equal(g, w)


@FAST
@given(worlds(), st.booleans(), st.integers(0, 2**31))
def test_compiled_agent_kernels_match_the_numpy_bodies(world, crafted, seed):
    block, rng, params, _, _, region, step = world
    intents = crafted_intents(block, seed) if crafted else None
    got = run_agents(True, block, rng, params, region, step, intents)
    assert_same_agents(got, run_agents(False, block, rng, params, region, step, intents))


def test_the_agent_edges_are_reached():
    """One fixed tiebreak world really holds binds, moves, targets bid on
    by several cells, and cells whose move is blocked (and passes)."""
    step = 40
    world = make_world((9, 9), Box((0, 0), (9, 9)), 2, True, step, (None, None), 0, 0.5, 0.05)
    block, rng, params = world[:3]
    region = tuple(slice(*s.indices(n)[:2]) for s, n in zip(block.interior, block.shape))
    got = run_agents(True, block, rng, params, region, step)
    assert_same_agents(got, run_agents(False, block, rng, params, region, step))
    arrays, (arrived, bound) = got
    moving = arrays["intents.move_dir"] >= 0
    assert (arrays["intents.bind_dir"] >= 0).any() and bound.sum() > 0
    assert moving.sum() > (arrays["intents.move_bid"] > 0).sum()  # shared targets
    assert 0 < arrived.sum() < moving.sum()
    agents = (block.tcell != 0) & (block.tcell_bound_time == 0)
    idle = agents & ~moving & (arrays["intents.bind_dir"] < 0)
    assert idle[region].any()  # blocked: occupied or outside


def _unmix(z: int) -> int:
    """The inverse of ``philox._mix_int``."""
    z ^= (z >> 31) ^ (z >> 62)
    z = z * pow(_MIX2_INT, -1, 1 << 64) & _M64
    z ^= (z >> 27) ^ (z >> 54)
    z = z * pow(_MIX1_INT, -1, 1 << 64) & _M64
    return z ^ (z >> 30) ^ (z >> 60)


def seed_whose_bid_word_is_zero(gid: int, step: int) -> int:
    """The seed whose ``TCELL_BID`` word for ``gid`` at ``step`` is 0:
    ``fold_prefix`` and the key fold run backwards from a zero word."""
    s = (-_PHI_INT & _M64) ^ (gid * _MIX2_INT & _M64) ^ (gid >> 32)  # the key fold's prefix
    s = ((_unmix(s) - _PHI_INT) & _M64) ^ (step * _MIX1_INT & _M64)
    s = ((_unmix(s) - _PHI_INT) & _M64) ^ (int(Stream.TCELL_BID) * _PHI_INT & _M64)
    seed = (_unmix(s) - _PHI_INT) & _M64
    return seed - (1 << 64) if seed >= 1 << 63 else seed


@pytest.mark.parametrize("batch", [0, 2])
def test_a_zero_bid_word_still_bids(batch):
    """Bid 0 means "no bid": the T cell whose word is 0 bids 1 on both
    tiers, and wins its move."""
    step, dim = 7, (5, 5)
    spec = GridSpec(dim)
    block = VoxelBlock(spec, spec.domain) if not batch else EnsembleBlock(spec, spec.domain, batch)
    at = (slice(None),) * bool(batch) + (3, 3)
    block.tcell[at] = 1
    block.tcell_tissue_time[at] = 5
    seed = seed_whose_bid_word_is_zero(int(block.gid_spatial[3, 3]), step)
    rng = VoxelRNG(seed) if not batch else EnsembleRNG([seed] * batch)
    assert rng.words(Stream.TCELL_BID, step, block.gid_spatial[3:4, 3])[0] == 0
    params = SimCovParams.fast_test(dim=dim)
    region = tuple(slice(*s.indices(n)[:2]) for s, n in zip(block.interior, block.shape))
    results = [run_agents(compiled, block, rng, params, region, step) for compiled in (True, False)]
    assert_same_agents(*results)
    arrays = results[0][0]
    assert (arrays["intents.bid_self"][at] == 1).all()
    assert (arrays["intents.move_bid"] == 1).sum() == max(batch, 1)
    assert len(arrays["moves.moved_out"]) == max(batch, 1)


# -- the extravasation pass and the Poisson timers ---------------------------------------

def extravasation_member(base, rs):
    """A member's parameters: the three that ``extravasate`` reads per member."""
    return base.with_(
        extravasate_fraction=float(rs.choice([0.05, 0.2, 1.0])),
        min_chemokine=float(rs.choice([1e-6, 0.25, 0.5])),
        tcell_tissue_period=int(rs.choice([1, 3, 40, 1440])),
    )


def padded_box(block, rs):
    """Padded spatial slices of a random non-empty box of ``block``'s interior."""
    box = []
    for s, n in zip(block.interior[-block.spec.ndim:], block.shape[-block.spec.ndim:]):
        start, stop = s.indices(n)[:2]
        lo = int(rs.integers(start, stop))
        box.append(slice(lo, int(rs.integers(lo + 1, stop + 1))))
    return tuple(box)


@st.composite
def extravasation_worlds(draw):
    """(params, block, rng, step, pool, region, counted): a world small enough that attempts
    repeat on a voxel, signal on both sides of each member's floor and exactly on some
    attempts' acceptance rolls, and T cells already present on some voxels."""
    ndim = draw(st.sampled_from([2, 3]))
    dim = tuple(draw(st.integers(3, 7 if ndim == 2 else 4)) for _ in range(ndim))
    spec = GridSpec(dim)
    lo = tuple(draw(st.integers(0, n - 2)) for n in dim)
    hi = tuple(draw(st.integers(a + 1, n)) for a, n in zip(lo, dim))
    owned = draw(st.sampled_from([spec.domain, Box(lo, hi)]))
    batch, step = draw(st.sampled_from([0, 1, 2, 3])), draw(st.integers(0, 500))
    rs = np.random.default_rng(draw(st.integers(0, 2**31)))
    base = SimCovParams.fast_test(dim=dim)
    pools = [0.0, 0.7, 3.5, 40.0, 400.0]
    if batch:
        first = extravasation_member(base, rs)
        per_member = draw(st.booleans())
        params = ParamsStack([first] + [
            extravasation_member(base, rs) if per_member else first
            for _ in range(batch - 1)])
        block = EnsembleBlock(spec, owned, batch)
        rng = EnsembleRNG(rs.integers(-(2**40), 2**40, size=batch))
        pool = rs.choice(pools, size=batch)
    else:
        params = extravasation_member(base, rs)
        block = VoxelBlock(spec, owned)
        rng = VoxelRNG(int(rs.integers(-(2**40), 2**40)))
        pool = float(rs.choice(pools))
    floors = np.reshape(params.min_chemokine, -1)
    palette = [0.0, 1.0, 0.75, *floors, *np.nextafter(floors, 0.0)]
    block.chemokine[...] = rs.choice(palette, size=block.shape)
    occupied = rs.random(block.shape) < draw(st.sampled_from([0.0, 0.3]))
    block.tcell[occupied] = 1
    block.tcell_tissue_time[...] = rs.integers(-1, 9, size=block.shape)
    block.tcell_bound_time[...] = rs.integers(0, 3, size=block.shape)
    # Signal exactly on an attempt's acceptance roll: there `<` and `<=` part.
    drawn = dict(kernels.extravasation_attempts(params, rng, step, pool))
    at = spec.unravel(drawn["gid"]) - np.asarray(block.origin)
    inside = np.flatnonzero(((at >= 0) & (at < block.shape[-ndim:])).all(axis=1))
    for i in inside[rs.random(inside.size) < 0.5]:
        lead = (int(drawn["member"][i]),) if batch else ()
        block.chemokine[lead + tuple(at[i])] = drawn["accept_u"][i]
    region = block.interior if draw(st.booleans()) else (
        block.interior[:-ndim] + padded_box(block, rs))
    counted = padded_box(block, rs) if not batch and draw(st.booleans()) else None
    return params, block, rng, step, pool, region, counted


def run_extravasation(how, params, block, rng, step, pool, region, counted):
    """One extravasation pass over a fresh schedule, on a copy: ``how`` is ``"native"``, the
    numpy body (``"numpy"``) or the per-attempt loop of ``tests/core/test_kernels.py``
    (``"loop"``, which counts every entrant).  The fields left and the tally."""
    blk, attempts = copy_block(block), kernels.extravasation_attempts(params, rng, step, pool)
    with on_tier(how == "native"):
        if how != "loop":
            entered = kernels.apply_extravasation(params, blk, attempts, region, counted)
        elif not rng.batched:
            entered = loop_apply_extravasation(params, blk, attempts, region)
        else:
            entered = np.array([loop_apply_extravasation(
                params.member(b), blk.member_view(b),
                {k: v[attempts["member"] == b] for k, v in attempts.items()}, region[1:],
            ) for b in range(blk.batch)])
    return {name: getattr(blk, name) for name in BLOCK_FIELDS}, entered


def assert_same_pass(got, want, tally=True):
    for name, w in want[0].items():
        assert got[0][name].tobytes() == w.tobytes(), name
    if tally:
        assert type(got[1]) is type(want[1]) and np.shape(got[1]) == np.shape(want[1])
        assert np.array_equal(got[1], want[1])


@FAST
@given(extravasation_worlds())
def test_compiled_extravasation_matches_the_numpy_body_and_the_loop(world):
    got = run_extravasation("native", *world)
    assert_same_pass(got, run_extravasation("numpy", *world))
    assert_same_pass(got, run_extravasation("loop", *world), tally=world[-1] is None)


def retime_case(block, seed):
    """Flat indices of a random half of ``block``'s interior (every member)."""
    pick = np.zeros(block.shape, bool)
    pick[block.interior] = np.random.default_rng(seed).random(pick[block.interior].shape) < 0.5
    return np.flatnonzero(pick)


def run_retime(compiled, block, rng, stream, step, at, period):
    blk = copy_block(block)
    with on_tier(compiled):
        kernels._retime(rng, stream, step, blk, at, period)
    return blk.epi_timer


@FAST
@given(worlds(), st.sampled_from(["incubation_period", "expressing_period", 1440]),
       st.integers(0, 2**31))
def test_compiled_retime_matches_the_numpy_body(world, period, seed):
    block, rng, params, _, _, _, step = world
    period = getattr(params, period) if isinstance(period, str) else period
    at = retime_case(block, seed)
    args = (rng, Stream.EXPRESSING_PERIOD, step, at, period)
    assert run_retime(True, block, *args).tobytes() == run_retime(False, block, *args).tobytes()


def busy_extravasation_world(batch):
    """Signal 1.0 everywhere, no T cell yet, and pools that send hundreds of attempts into a
    7 x 6 grid: most enter, and every lifespan draw is made."""
    spec = GridSpec((7, 6))
    base = SimCovParams.fast_test(dim=spec.shape)
    periods = [40, 3, 1440][:max(batch, 1)]
    members = [base.with_(tcell_tissue_period=p, extravasate_fraction=1.0) for p in periods]
    if batch:
        params, block = ParamsStack(members), EnsembleBlock(spec, spec.domain, batch)
        rng, pool = EnsembleRNG(np.arange(3, 3 + batch)), np.full(batch, 300.0)
    else:
        params, block, rng, pool = members[0], VoxelBlock(spec, spec.domain), VoxelRNG(3), 300.0
    block.chemokine[...] = 1.0
    return params, block, rng, 11, pool, block.interior, None


@pytest.mark.parametrize("batch", [0, 3])
def test_the_extravasation_edges_are_reached(batch):
    """One busy world per shape: sites repeat, the first accepting attempt takes the voxel,
    and the three spellings agree (the tally counts each entrant once)."""
    world = busy_extravasation_world(batch)
    got = run_extravasation("native", *world)
    assert_same_pass(got, run_extravasation("numpy", *world))
    assert_same_pass(got, run_extravasation("loop", *world))
    attempts = kernels.extravasation_attempts(*world[:1], *world[2:5])
    assert attempts.size > np.sum(got[1]) > 0  # repeats: more attempts than entrants
    assert len(np.unique(attempts["gid"])) < attempts.size
    assert np.sum(got[1]) == (got[0]["tcell"] != 0).sum()


@pytest.fixture
def wide_band(monkeypatch):
    """``_BAND`` at 2**-6: far more draws fall in a threshold's band and go back to Python;
    every call of ``native._band`` reports how many."""
    from repro.rng import distributions

    seen = []
    band = native._band
    monkeypatch.setattr(distributions, "_BAND", 2.0**-6)
    monkeypatch.setattr(native, "_band", lambda field, at, *rest: (
        seen.append(len(at)), band(field, at, *rest)))
    distributions._poisson_edges.cache_clear()
    yield seen
    distributions._poisson_edges.cache_clear()  # before the narrow band is back: rebuilt


@pytest.mark.parametrize("batch", [0, 3])
def test_draws_in_a_band_are_recomputed_by_scipy(wide_band, batch):
    """Both tiers agree on the extravasation pass and on ``_retime`` while the C search
    sends hundreds of draws back for SciPy's formula: skip that and tissue times and
    timers keep stale values."""
    world = busy_extravasation_world(batch)
    assert_same_pass(run_extravasation("native", *world), run_extravasation("numpy", *world))
    entered = sum(wide_band)
    assert entered > 0
    params, block, rng, step = world[:4]
    at = retime_case(block, 5)
    block.epi_timer[...] = -7
    args = (rng, Stream.INCUBATION_PERIOD, step, at, params.tcell_tissue_period)
    assert run_retime(True, block, *args).tobytes() == run_retime(False, block, *args).tobytes()
    assert sum(wide_band) > entered


# -- the gate sweep: activity and sweep_window -------------------------------------------

def run_sweep(compiled, block, min_chemokine, period):
    """A fresh gate's first sweep on a copy: its mask, member counts and region."""
    blk = copy_block(block)
    with on_tier(compiled):
        gate = ActivityGate(blk, min_chemokine, sweep_period=period)
        gate.sweep()
    return gate.mask.copy(), np.array(gate.member_counts), gate.region()


def assert_same_sweep(got, want):
    for g, w in zip(got[:2], want[:2]):
        assert g.dtype == w.dtype and g.shape == w.shape and np.array_equal(g, w)
    assert got[2] == want[2]


@FAST
@given(worlds(), st.sampled_from([1, None]), st.floats(0.0, 0.99), st.integers(0, 2**31))
def test_compiled_gate_sweep_matches_the_numpy_bodies(world, period, idle, seed):
    """The sweep's two passes on both tiers, over worlds whose activity is thinned to a
    fraction ``1 - idle`` of the voxels (the rest: healthy, no signal, no T cell)."""
    block, _, params = world[:3]
    quiet = np.random.default_rng(seed).random(block.shape) < idle
    block.epi_state[quiet] = EpiState.HEALTHY
    for name in ("virions", "chemokine", "tcell"):
        getattr(block, name)[quiet] = 0
    assert_same_sweep(run_sweep(True, block, params.min_chemokine, period),
                      run_sweep(False, block, params.min_chemokine, period))


def test_the_gate_sweep_edges_are_reached():
    """Activity of each kind on a few voxels of a quiet 3-member block, one of them in the
    ghost ring: both modes give a region smaller than the interior, on both tiers."""
    spec = GridSpec((40, 32))
    block = EnsembleBlock(spec, spec.domain, 3)
    block.epi_state[...] = EpiState.HEALTHY
    block.virions[0, 3, 4] = 1e-300
    block.chemokine[1, 9, 9] = 1e-6
    block.tcell[2, 5, 2] = 1
    block.epi_state[2, 0, 6] = EpiState.EXPRESSING  # a ghost: it widens the raw hull only
    for period in (1, None):
        got = run_sweep(True, block, 1e-6, period)
        assert_same_sweep(got, run_sweep(False, block, 1e-6, period))
        assert (got[1] > 0).all() and got[2] is not None
        assert got[0].sum() < got[0].size


# -- every entry point has a case --------------------------------------------------------

class _Seen:
    """A C function that notes its name when called."""

    def __init__(self, fn, seen):
        self.fn, self.seen, self.argtypes, self.__name__ = fn, seen, fn.argtypes, fn.__name__

    def __call__(self, *args):
        self.seen.add(self.__name__)
        return self.fn(*args)


def test_every_entry_point_has_an_equivalence_case(monkeypatch):
    """Every name in ``native._NARGS`` is called by one of this module's fixed-world cases
    (run here, with the tier's functions wrapped): an entry point added without a case
    here fails."""
    tier, seen = native.tier(), set()
    monkeypatch.setattr(tier, "_fns", {name: tuple(_Seen(fn, seen) for fn in fns)
                                       for name, fns in tier._fns.items()})
    test_the_edges_are_reached()
    test_the_agent_edges_are_reached()
    test_the_gate_sweep_edges_are_reached()
    for batch in (0, 3):
        test_the_extravasation_edges_are_reached(batch)
    assert seen == set(native._NARGS), set(native._NARGS) - seen
