"""The CPU baseline's two-wave RPC tiebreak resolves like the one-wave bid.

SIMCoV-CPU (§2.2, §3.1) settles T-cell contention across ranks in two
communication waves: intents whose target another rank owns travel to that
owner (wave 1), the owner max-merges them with its own bids and decides,
and the winners' sources learn the outcome from a result RPC (wave 2).
SIMCoV-GPU needs one wave: every copy of a voxel max-merges the bids.
:func:`two_wave_tiebreak` is the CPU protocol written out rank by rank as
plain numpy — the reference the executing PGAS substrate used to be —
and the property asserts it moves, binds and leaves every T-cell field
exactly as :func:`~repro.core.kernels.resolve_moves` /
:func:`~repro.core.kernels.resolve_binds` do on the undivided block.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import kernels
from repro.core.params import SimCovParams
from repro.core.state import BINDABLE, EpiState, VoxelBlock
from repro.grid.decomposition import Decomposition, DecompositionKind
from repro.grid.spec import GridSpec, moore_offsets
from repro.rng.streams import VoxelRNG

STEP = 7


def _sends(block, dirs, stencil, bid_self, owner):
    """Wave-1 payload per kind: every placed intent as (source, target)
    padded coordinates, its bid, and both ends' owners."""
    src = np.argwhere(dirs >= 0)
    tgt = src + stencil[dirs[tuple(src.T)]]
    return {
        "src": src, "tgt": tgt, "bid": bid_self[tuple(src.T)],
        "src_rank": owner[tuple(src.T)], "tgt_rank": owner[tuple(tgt.T)],
    }


def two_wave_tiebreak(params, block, intents, decomp):
    """Resolve ``intents`` on ``block`` (one padded whole-domain block) as
    ``decomp``'s ranks would over two RPC waves.  Returns the T-cell fields
    afterwards, the arrivals and the bound epithelial cells (padded
    coordinates)."""
    owner = np.full(block.shape, -1)
    owner[block.interior] = decomp.owner_of(np.indices(block.spec.shape).T).T
    tcell = block.tcell.copy()
    life = block.tcell_tissue_time.copy()
    bound_time = block.tcell_bound_time.copy()
    moves = _sends(block, intents.move_dir, moore_offsets(block.spec.ndim),
                   intents.bid_self, owner)
    binds = _sends(block, intents.bind_dir, kernels.bind_stencil(block.spec.ndim),
                   intents.bid_self, owner)
    moves["life"] = life[tuple(moves["src"].T)]

    def erase(s):
        tcell[s] = life[s] = bound_time[s] = 0

    def hold(s):
        bound_time[s] = params.tcell_binding_period

    results = {}  # wave 2: source rank -> [(apply, source), ...]
    arrivals, bound = 0, []
    for rank in range(decomp.nranks):
        # Owner side: its own sources' intents on its voxels plus the
        # wave-1 arrivals (intents are withheld from the source's local
        # resolution when another rank owns the target).
        for sent, apply in ((moves, erase), (binds, hold)):
            mine = sent["tgt_rank"] == rank
            merged = {}
            for t, b in zip(map(tuple, sent["tgt"][mine]), sent["bid"][mine]):
                merged[t] = max(merged.get(t, 0), b)
            for i in np.nonzero(mine)[0]:
                t, s = tuple(sent["tgt"][i]), tuple(sent["src"][i])
                if sent["bid"][i] != merged[t]:
                    continue
                if sent is moves:
                    tcell[t], life[t], bound_time[t] = 1, sent["life"][i], 0
                    arrivals += 1
                if sent["src_rank"][i] == rank:
                    apply(s)
                else:
                    results.setdefault(sent["src_rank"][i], []).append((apply, s))
            if sent is binds:
                bound += [t for t in merged if block.epi_state[t] in BINDABLE]
    # Source side of wave 2: erase the movers and hold the binders that won
    # a voxel another rank owns.
    for won in results.values():
        for apply, s in won:
            apply(s)
    return (tcell, life, bound_time), arrivals, sorted(bound)


def _crowd(draw):
    ndim = draw(st.sampled_from([2, 3]))
    shape = tuple(draw(st.integers(4, 12 if ndim == 2 else 7)) for _ in range(ndim))
    kind = draw(st.sampled_from(list(DecompositionKind)))
    nranks = draw(st.integers(1, min(4, shape[0])))
    spec = GridSpec(shape)
    decomp = Decomposition.make(spec, nranks, kind)
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    block = VoxelBlock(spec, spec.domain)
    inner = block.interior
    density = draw(st.floats(0.05, 0.5))
    present = rng.random(shape) < density
    block.tcell[inner] = present
    block.tcell_tissue_time[inner] = np.where(present, rng.integers(1, 100, shape), 0)
    # Some T cells are still bound from an earlier step: they place no intent.
    held = present & (rng.random(shape) < 0.2)
    block.tcell_bound_time[inner] = np.where(held, 2, 0)
    # Bind targets in sparse bands on the rank seams of the first axis;
    # every other T cell tries to move.
    seams = sorted({b.lo[0] for b in decomp.boxes if b.lo[0] > 0})
    band = np.zeros(shape, dtype=bool)
    band[seams] = rng.random((len(seams),) + shape[1:]) < 0.3
    block.epi_state[inner][band] = EpiState.EXPRESSING
    return block, decomp


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_two_waves_resolve_like_one_max_merged_wave(data):
    block, decomp = _crowd(data.draw)
    params = SimCovParams.fast_test(dim=block.spec.shape)
    rng = VoxelRNG(data.draw(st.integers(0, 10_000)))
    intents = kernels.IntentArrays(block.shape)
    kernels.tcell_intents(params, rng, STEP, block, intents, block.interior)

    fields, arrivals, bound = two_wave_tiebreak(params, block, intents, decomp)

    epi_before = block.epi_state.copy()
    moved = kernels.resolve_moves(block, intents, block.interior)
    binds = kernels.resolve_binds(params, rng, STEP, block, intents, block.interior)
    assert arrivals == moved
    newly = np.argwhere((block.epi_state == EpiState.APOPTOTIC) & (epi_before != block.epi_state))
    assert sorted(map(tuple, newly)) == bound
    assert binds == len(bound)
    for name, got in zip(("tcell", "tcell_tissue_time", "tcell_bound_time"), fields):
        np.testing.assert_array_equal(got, getattr(block, name), err_msg=name)
