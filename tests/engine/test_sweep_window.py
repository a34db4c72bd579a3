"""Property test: the windowed sweep equals the whole-block sweep.

``ActivityGate.sweep()`` runs its dilation, tile reduce, tile dilation,
expansion, count and bounding box on one window of the block — the hull of
the raw activity it found, grown and aligned to tiles — and claims that
everything outside the window is False.  The reference here is the
unwindowed rule spelled out over the *whole* padded mask (dilate → crop →
tile-any → dilate → expand); it lives in this test, not in ``src/``.

Activity is placed where the gate's premise allows it: anywhere on a
stale (fresh) gate, and afterwards inside the current region or on the
ghost faces — including faces far away from the region, which is how a
neighbour rank's activity arrives.  The sweep's two passes have a numpy
and a compiled body; the tests pinned to a ``tier`` run each, the others
run whichever the process has (CI's ``native-off`` job runs them on the
numpy bodies).
"""

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.state import EnsembleBlock, EpiState, VoxelBlock
from repro.engine.activity import ActivityGate
from repro.grid.box import Box
from repro.grid.spec import GridSpec
from repro.grid.tiling import _dilate, _expand_tiles, _tile_any

MIN_CHEMOKINE = 1e-6


def _reference(block, gate, min_chemokine=MIN_CHEMOKINE):
    """(mask, member_counts, region) of a whole-block sweep."""
    owned, ndim, g = gate.tiles.owned_shape, gate.tiles.ndim, block.ghost
    raw = block.activity_mask_padded(min_chemokine)
    crop = (...,) + tuple(slice(g, g + s) for s in owned)
    mask = _dilate(raw, ndim)[crop]
    if gate.sweep_period > 1:
        tile = gate.tiles.tile_shape
        flags = _tile_any(mask, tile, gate.tiles.tiles_per_dim)
        mask = _expand_tiles(_dilate(flags, ndim), tile, owned)
    spatial = tuple(range(mask.ndim - ndim, mask.ndim))
    region = []
    for axis in spatial:
        hit = np.nonzero(mask.any(axis=tuple(a for a in range(mask.ndim)
                                             if a != axis)))[0]
        if hit.size == 0:
            return mask, mask.sum(axis=spatial), None
        region.append(slice(g + int(hit[0]), g + int(hit[-1]) + 1))
    lead = tuple(slice(0, n) for n in mask.shape[: mask.ndim - ndim])
    return mask, mask.sum(axis=spatial), lead + tuple(region)


def _assert_matches_reference(block, gate):
    gate.sweep()
    mask, counts, region = _reference(block, gate)
    assert gate.mask.shape == mask.shape
    np.testing.assert_array_equal(gate.mask, mask)
    np.testing.assert_array_equal(gate.member_counts, counts)
    assert np.shape(gate.member_counts) == np.shape(counts)
    assert gate.count == int(mask.sum())
    assert gate.region() == region
    assert not gate.stale


@st.composite
def _cases(draw):
    ndim = draw(st.sampled_from([2, 3]))
    owned = tuple(
        draw(st.integers(min_value=3, max_value=21 if ndim == 2 else 11))
        for _ in range(ndim)
    )
    # Tiles that need not divide the block: ragged edge tiles.
    tile = tuple(draw(st.integers(min_value=1, max_value=s)) for s in owned)
    period = draw(st.integers(min_value=1, max_value=min(tile)))
    batch = draw(st.sampled_from([None, 1, 3]))
    return owned, tile, period, batch


def _build(owned, tile, period, batch):
    spec = GridSpec(owned)
    box = Box((0,) * len(owned), owned)
    block = (VoxelBlock(spec, box) if batch is None
             else EnsembleBlock(spec, box, batch))
    gate = ActivityGate(block, MIN_CHEMOKINE, sweep_period=period,
                        tile_shape=tile)
    return block, gate


def _light(block, where):
    """Make the voxels of boolean ``where`` (padded shape) active."""
    block.virions[where] = 1.0


class TestWindowedSweep:
    @given(case=_cases(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_equals_whole_block_sweep(self, case, data):
        block, gate = _build(*case)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        density = data.draw(st.sampled_from([0.0, 0.01, 0.1]))

        # Fresh gate: activity anywhere, ghosts included.
        assert gate.stale
        _light(block, rng.random(block.shape) < density)
        _assert_matches_reference(block, gate)

        # Swept gate: new activity inside the region and on ghost faces
        # anywhere on the surface, far from the region or not.
        for _ in range(2):
            allowed = np.ones(block.shape, dtype=bool)
            allowed[gate._full_region] = False  # the ghost shell
            if gate.region() is not None:
                allowed[gate.region()] = True
            _light(block, allowed & (rng.random(block.shape) < 0.05))
            _assert_matches_reference(block, gate)

    @given(case=_cases())
    @settings(max_examples=20, deadline=None)
    def test_idle_block(self, case):
        block, gate = _build(*case)
        _assert_matches_reference(block, gate)
        assert gate.region() is None and gate.count == 0
        # ... and stays idle on a second, faces-only sweep.
        _assert_matches_reference(block, gate)

    @given(case=_cases())
    @settings(max_examples=20, deadline=None)
    def test_full_block(self, case):
        block, gate = _build(*case)
        _light(block, np.ones(block.shape, dtype=bool))
        _assert_matches_reference(block, gate)
        assert gate.count == gate.mask.size
        assert gate.region() == gate._full_region

    @given(case=_cases(), ghost=st.sampled_from([1, 2]), data=st.data())
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_each_tier_on_every_term_of_the_predicate(self, tier, case, ghost, data):
        """Each tier's two passes (``tier``: the numpy bodies, or the
        compiled ones) against the whole-block rule, with ghosts 1 or 2
        wide, sub-domain blocks, a per-member threshold and every term of
        the predicate on its edge; beside each, values just off it."""
        owned, tile, period, batch = case
        spec = GridSpec(tuple(s + 3 for s in owned))
        box = Box((2,) * len(owned), tuple(s + 2 for s in owned))
        block = (VoxelBlock(spec, box, ghost=ghost) if batch is None
                 else EnsembleBlock(spec, box, batch, ghost=ghost))
        floor = (MIN_CHEMOKINE if batch is None else
                 np.reshape([MIN_CHEMOKINE * (b + 1) for b in range(batch)],
                            (batch,) + (1,) * len(owned)))
        gate = ActivityGate(block, floor, sweep_period=period, tile_shape=tile)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        at_floor = np.broadcast_to(floor, block.shape)

        def light(where):
            term = rng.integers(0, 4, size=block.shape)
            block.virions[where & (term == 0)] = 5e-324
            hit = where & (term == 1)
            block.chemokine[hit] = at_floor[hit]
            block.tcell[where & (term == 2)] = -1
            block.epi_state[where & (term == 3)] = rng.choice(
                [EpiState.INCUBATING, EpiState.EXPRESSING, EpiState.APOPTOTIC],
                size=int((where & (term == 3)).sum()))

        # Inert everywhere: signal just below its member's threshold,
        # -0.0 and NaN virions, cells that are absent, healthy or dead.
        block.chemokine[...] = np.nextafter(at_floor, 0.0)
        block.virions[rng.random(block.shape) < 0.3] = -0.0
        block.virions[rng.random(block.shape) < 0.1] = np.nan
        block.epi_state[rng.random(block.shape) < 0.3] = EpiState.DEAD
        block.epi_state[rng.random(block.shape) < 0.1] = EpiState.EMPTY
        light(rng.random(block.shape) < data.draw(st.sampled_from([0.0, 0.01, 0.1])))
        for _ in range(3):
            gate.sweep()
            want = _reference(block, gate, floor)
            np.testing.assert_array_equal(gate.mask, want[0])
            np.testing.assert_array_equal(gate.member_counts, want[1])
            assert gate.region() == want[2]
            allowed = np.ones(block.shape, dtype=bool)
            allowed[gate._full_region] = False
            if gate.region() is not None:
                allowed[gate.region()] = True
            light(allowed & (rng.random(block.shape) < 0.05))

    def test_activity_that_died_out_leaves_nothing_behind(self, tier):
        """The raw mask outlives the sweep: activity that dies out beside a
        ghost face must not come back when the face wakes the block."""
        block, gate = _build((16, 16), (1, 1), 1, None)
        block.virions[2, 3] = 1.0
        _assert_matches_reference(block, gate)
        block.virions[2, 3] = 0.0
        _assert_matches_reference(block, gate)
        assert gate.region() is None
        block.virions[0, 4] = 1.0
        _assert_matches_reference(block, gate)

    @given(case=_cases(), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_single_ghost_voxel_far_from_region(self, case, data):
        """One active voxel deep in the block, then one on a ghost face."""
        block, gate = _build(*case)
        owned = case[0]
        g = block.ghost
        lead = (slice(None),) * (len(block.shape) - len(owned))
        inner = tuple(
            g + data.draw(st.integers(min_value=0, max_value=s - 1))
            for s in owned
        )
        _light(block, lead + inner)
        _assert_matches_reference(block, gate)
        axis = data.draw(st.integers(min_value=0, max_value=len(owned) - 1))
        ghost = list(
            data.draw(st.integers(min_value=0, max_value=s + 2 * g - 1))
            for s in owned
        )
        ghost[axis] = data.draw(st.sampled_from([0, owned[axis] + 2 * g - 1]))
        _light(block, lead + tuple(ghost))
        _assert_matches_reference(block, gate)
