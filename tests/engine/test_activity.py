"""Unit tests for the activity-gating layer (repro.engine.activity) and
the vectorized TileGrid sweep machinery it builds on.

The vectorized tile reductions (`_dilate`, `_tile_any`, `voxel_mask`,
`active_voxel_count`) are each checked against a brute-force reference
on randomized masks, since the whole gating contract rests on them.
"""

import numpy as np
import pytest

from repro.core.model import SequentialSimCov
from repro.core.params import SimCovParams
from repro.engine.activity import ActivityGate
from repro.engine.ensemble import EnsembleSimCov
from repro.grid.tiling import TileGrid, _dilate, _tile_any


def _brute_dilate(mask):
    """Reference Moore dilation by one cell (all 3**ndim - 1 offsets)."""
    out = mask.copy()
    for offset in np.ndindex(*(3,) * mask.ndim):
        off = tuple(o - 1 for o in offset)
        if not any(off):
            continue
        src = tuple(
            slice(max(0, -o), mask.shape[d] - max(0, o)) for d, o in enumerate(off)
        )
        dst = tuple(
            slice(max(0, o), mask.shape[d] - max(0, -o)) for d, o in enumerate(off)
        )
        out[dst] |= mask[src]
    return out


class TestTileGridVectorization:
    @pytest.mark.parametrize("shape", [(7,), (9, 13), (1, 8), (5, 6, 7)])
    def test_dilate_matches_brute_force(self, shape):
        rng = np.random.default_rng(3)
        for density in (0.0, 0.05, 0.5, 1.0):
            mask = rng.random(shape) < density
            np.testing.assert_array_equal(_dilate(mask), _brute_dilate(mask))

    @pytest.mark.parametrize(
        "owned,tile", [((16, 16), (4, 4)), ((17, 13), (4, 5)), ((12, 12, 12), (4, 4, 4))]
    )
    def test_tile_any_matches_per_tile_loop(self, owned, tile):
        rng = np.random.default_rng(7)
        grid = TileGrid(owned, tile)
        mask = rng.random(owned) < 0.02
        got = _tile_any(mask, grid.tile_shape, grid.tiles_per_dim)
        for idx in np.ndindex(*grid.tiles_per_dim):
            sl = grid.tile_box(idx).slices_from((0,) * len(owned))
            assert got[idx] == mask[sl].any(), idx

    @pytest.mark.parametrize("owned,tile", [((16, 16), (4, 4)), ((17, 13), (4, 5))])
    def test_padded_sweep_matches_windowed_loop(self, owned, tile):
        """The dilate-then-reduce padded sweep equals the definitional rule:
        a tile is raw-active iff any voxel within one voxel of it (ghost
        ring included) is active."""
        rng = np.random.default_rng(11)
        ghost = 1
        padded = rng.random(tuple(s + 2 * ghost for s in owned)) < 0.03

        grid = TileGrid(owned, tile, ghost=ghost)
        grid.sweep(padded, padded=True)

        ref = np.zeros(grid.tiles_per_dim, dtype=bool)
        for idx in np.ndindex(*grid.tiles_per_dim):
            box = grid.tile_box(idx)
            window = tuple(
                slice(max(0, lo + ghost - 1), hi + ghost + 1)
                for lo, hi in zip(box.lo, box.hi)
            )
            ref[idx] = padded[window].any()
        expected = _brute_dilate(ref)
        expected |= grid._boundary_mask()
        np.testing.assert_array_equal(grid.active, expected)

    def test_voxel_mask_matches_slice_fill(self):
        grid = TileGrid((17, 13), (4, 5))
        rng = np.random.default_rng(5)
        grid.active = rng.random(grid.tiles_per_dim) < 0.4
        ref = np.zeros(grid.owned_shape, dtype=bool)
        for sl in grid.active_tile_slices():
            ref[sl] = True
        np.testing.assert_array_equal(grid.voxel_mask(), ref)

    def test_active_voxel_count_matches_boxes(self):
        grid = TileGrid((17, 13), (4, 5))
        rng = np.random.default_rng(9)
        grid.active = rng.random(grid.tiles_per_dim) < 0.4
        ref = sum(grid.tile_box(i).size for i in grid.active_tile_indices())
        assert grid.active_voxel_count() == ref


class TestActivityGate:
    def _gate(self, dim=(24, 24), **kw):
        p = SimCovParams.fast_test(dim=dim, num_infections=1, num_steps=20)
        sim = SequentialSimCov(p, seed=3, **kw)
        return sim, sim.gate

    def test_starts_all_active(self):
        sim, gate = self._gate()
        assert gate.region() == sim.block.interior
        assert gate.count == 24 * 24
        assert gate.fraction() == 1.0

    def test_sweep_shrinks_to_active_neighborhood(self):
        sim, gate = self._gate(dim=(64, 64))
        sim.run(gate.sweep_period)  # first due sweep has run
        region = gate.region()
        assert region is not None and region != sim.block.interior
        # Every raw-active voxel (with its one-voxel motion margin) must
        # stay inside the tracked mask, else the gate could miss writes.
        raw = sim.block.activity_mask(sim.params.min_chemokine)
        margin = _brute_dilate(raw)
        assert not (margin & ~gate.mask).any()

    def test_due_schedule(self):
        _, gate = self._gate()
        period = gate.sweep_period
        assert period > 1
        due = [s for s in range(4 * period) if gate.due(s)]
        assert due == [period - 1, 2 * period - 1, 3 * period - 1, 4 * period - 1]

    def test_disabled_gate_is_whole_interior(self):
        sim, gate = self._gate(active_gating=False)
        sim.run(10)
        assert gate.region() == sim.block.interior
        assert gate.count == 24 * 24
        assert gate.sweep() == 0

    def test_refresh_mode_dilates_raw_mask(self):
        sim, gate = self._gate(sweep_period=1, tile_shape=(1, 1))
        sim.run(5)
        raw = sim.block.activity_mask_padded(sim.params.min_chemokine)
        g = sim.block.ghost
        crop = tuple(slice(g, s - g) for s in raw.shape)
        np.testing.assert_array_equal(gate.mask, _brute_dilate(raw)[crop])

    def test_idle_domain_region_is_none(self):
        p = SimCovParams.fast_test(dim=(16, 16), num_infections=0, num_steps=10)
        sim = SequentialSimCov(p, seed=1)
        sim.run(sim.gate.sweep_period)
        assert sim.gate.region() is None
        assert sim.gate.count == 0

    def test_unsound_period_rejected(self):
        p = SimCovParams.fast_test(dim=(24, 24), num_infections=1, num_steps=10)
        with pytest.raises(ValueError, match="sweep_period"):
            SequentialSimCov(p, seed=0, tile_shape=(4, 4), sweep_period=5)
        with pytest.raises(ValueError, match="sweep_period"):
            SequentialSimCov(p, seed=0, sweep_period=0)


def _sim(batch, steps=16, **kw):
    """A gated run: solo (``batch=None``) or ``batch`` stacked members."""
    p = SimCovParams.fast_test(dim=(48, 48), num_infections=1, num_steps=steps)
    if batch is None:
        sim = SequentialSimCov(p, seed=0, **kw)
        members = [sim.block]
    else:
        sim = EnsembleSimCov(p, seeds=list(range(batch)), **kw)
        members = sim.backend.member_views
    sim.run(steps)
    return sim, members


def _first_use_sim(batch, dim=(256, 256)):
    p = SimCovParams.fast_test(dim=dim, num_infections=1, num_steps=20)
    if batch is None:
        return SequentialSimCov(p, seed=3)
    return EnsembleSimCov(p, seeds=list(range(3, 3 + batch)))


@pytest.mark.parametrize("batch", [None, 2])
class TestFirstUse:
    """A fresh gate is swept by the first step, not ``sweep_period`` steps
    later.  Mutation check: without the stale sweep in
    ``SingleBlockBackend.phase_age_extravasate`` the region after one step
    is the whole interior and both one-step assertions fail."""

    def test_region_is_tight_after_one_step(self, batch):
        sim = _first_use_sim(batch)
        gate = sim.gate
        assert gate.stale and gate.fraction() == 1.0
        seeds = np.argwhere(sim.block.virions > 0)
        assert len(seeds) == (batch or 1)
        sim.step()
        tiles = gate.tiles.tile_shape
        region = gate.region()[-2:]
        if batch is None:
            # The seed's tile plus its one-tile buffer: at most 3x3 tiles,
            # and the seed is inside.
            assert all(s.stop - s.start <= 3 * t for s, t in zip(region, tiles))
            assert all(s.start <= c < s.stop for s, c in zip(region, seeds[0]))
        counts = np.reshape(gate.member_counts, -1)
        assert (counts > 0).all()
        assert (counts <= 9 * tiles[0] * tiles[1]).all()
        assert gate.count == int(counts.sum())

    def test_raw_activity_stays_inside_mask_every_early_step(self, batch):
        sim = _first_use_sim(batch, dim=(64, 64))
        gate = sim.gate
        views = (
            [sim.block] if batch is None else sim.backend.member_views
        )
        for step in range(2 * gate.sweep_period):
            sim.step()
            masks = gate.mask.reshape((len(views),) + views[0].owned.shape)
            for view, mask in zip(views, masks):
                raw = view.activity_mask(sim.params.min_chemokine)
                assert not (_brute_dilate(raw) & ~mask).any(), step
        assert 0 < gate.count < gate.mask.size


@pytest.mark.parametrize("batch", [None, 1, 3])
class TestGateMemberAxis:
    """The gate sweeps the trailing spatial axes; a leading member axis
    only ever adds independent masks in front."""

    def test_union_region_covers_every_member_mask(self, batch):
        sim, members = _sim(batch)
        gate = sim.gate
        region = gate.region()
        assert region is not None
        assert len(region) == sim.block.epi_state.ndim
        if batch is not None:
            assert region[0] == slice(0, batch)
        g = sim.block.ghost
        masks = gate.mask.reshape((len(members),) + members[0].owned.shape)
        for mask in masks:
            for coords, sl in zip(np.nonzero(mask), region[-mask.ndim:]):
                if coords.size:
                    assert coords.min() >= sl.start - g
                    assert coords.max() < sl.stop - g

    def test_member_counts_sum_to_count(self, batch):
        sim, members = _sim(batch)
        counts = sim.gate.member_counts
        assert np.shape(counts) == (() if batch is None else (batch,))
        assert sim.gate.count == int(np.sum(counts))
        assert 0 < sim.gate.count < sim.gate.mask.size

    @pytest.mark.parametrize(
        "tile_shape,sweep_period", [(None, None), ((4, 4), 3), ((4, 4), 1)]
    )
    def test_member_mask_equals_solo_gate_on_same_state(
        self, batch, tile_shape, sweep_period
    ):
        sim, members = _sim(batch, tile_shape=tile_shape,
                            sweep_period=sweep_period)
        sim.gate.sweep()
        masks = sim.gate.mask.reshape((len(members),) + members[0].owned.shape)
        for b, member in enumerate(members):
            solo = ActivityGate(
                member, sim.params.min_chemokine,
                tile_shape=tile_shape, sweep_period=sweep_period,
            )
            solo.sweep()
            np.testing.assert_array_equal(masks[b], solo.mask, err_msg=str(b))
            assert int(np.reshape(sim.gate.member_counts, -1)[b]) == solo.count
