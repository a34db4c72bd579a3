"""Tests for memory tiling and the activation-sweep safety protocol."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.grid.tiling import TileGrid, _dilate


class TestTileGeometry:
    def test_exact_tiling(self):
        tg = TileGrid((12, 12), (3, 3))
        assert tg.tiles_per_dim == (4, 4)
        assert tg.num_tiles == 16
        assert sum(tg.tile_box(i).size for i in np.ndindex(4, 4)) == 144

    def test_ragged_edge_tiles(self):
        tg = TileGrid((10, 7), (4, 4))
        assert tg.tiles_per_dim == (3, 2)
        assert tg.tile_box((2, 1)).shape == (2, 3)
        total = sum(
            tg.tile_box(tuple(i)).size for i in np.ndindex(*tg.tiles_per_dim)
        )
        assert total == 70

    def test_tile_of_voxel(self):
        tg = TileGrid((12, 12), (3, 3))
        np.testing.assert_array_equal(tg.tile_of_voxel([[0, 0], [5, 8], [11, 11]]),
                                      [[0, 0], [1, 2], [3, 3]])

    def test_rejects_oversized_tile(self):
        with pytest.raises(ValueError):
            TileGrid((4, 4), (8, 4))

    def test_max_sweep_period(self):
        assert TileGrid((12, 12), (3, 4)).max_sweep_period() == 3


class TestActivation:
    def test_initially_all_active(self):
        """Fresh tile grids start fully active (safe default before the
        first sweep observes real activity)."""
        tg = TileGrid((12, 12), (3, 3))
        assert tg.num_active == 16

    def test_sweep_finds_activity_and_dilates(self):
        tg = TileGrid((15, 15), (3, 3), ghost=0)
        mask = np.zeros((15, 15), dtype=bool)
        mask[7, 7] = True  # center of tile (2,2)
        tg.sweep(mask)
        active = set(tg.active_tile_indices())
        expected = {(i, j) for i in (1, 2, 3) for j in (1, 2, 3)}
        assert active == expected

    def test_sweep_pins_boundary_tiles(self):
        tg = TileGrid((15, 15), (3, 3), ghost=1)
        tg.sweep(np.zeros((15, 15), dtype=bool))
        active = set(tg.active_tile_indices())
        # All 16 boundary tiles of the 5x5 tile grid stay active.
        boundary = {
            (i, j)
            for i in range(5)
            for j in range(5)
            if i in (0, 4) or j in (0, 4)
        }
        assert active == boundary

    def test_sweep_pins_only_the_requested_sides(self):
        pins = np.zeros((2, 2), dtype=bool)
        pins[0, 0] = True
        tg = TileGrid((24, 24), (4, 4), ghost=1, pin_sides=pins)
        tg.sweep(np.zeros((26, 26), dtype=bool), padded=True)
        vm = tg.voxel_mask()
        assert vm[:4, :].all()  # pinned low-x shell stays active
        assert not vm[4:, :].any()

    def test_no_ghost_no_pinning(self):
        tg = TileGrid((15, 15), (3, 3), ghost=0)
        tg.sweep(np.zeros((15, 15), dtype=bool))
        assert tg.num_active == 0

    def test_voxel_mask_matches_tiles(self):
        tg = TileGrid((12, 12), (3, 3), ghost=0)
        mask = np.zeros((12, 12), dtype=bool)
        mask[0, 0] = True
        tg.sweep(mask)
        vm = tg.voxel_mask()
        assert vm[:6, :6].all()  # (0,0) tile + dilation
        assert not vm[9:, 9:].any()

    def test_active_voxel_count(self):
        tg = TileGrid((12, 12), (3, 3), ghost=0)
        mask = np.zeros((12, 12), dtype=bool)
        mask[5, 5] = True
        tg.sweep(mask)
        assert tg.active_voxel_count() == tg.voxel_mask().sum()

    def test_sweep_rejects_bad_shape(self):
        tg = TileGrid((12, 12), (3, 3))
        with pytest.raises(ValueError):
            tg.sweep(np.zeros((5, 5), dtype=bool))


class TestSweepSafety:
    """The §3.2 invariant: with a 1-tile buffer and sweep period <= tile
    side, activity moving <=1 voxel/step can never escape the active set."""

    @given(
        seed=st.integers(min_value=0, max_value=300),
        period=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=30, deadline=None)
    def test_random_walk_never_escapes(self, seed, period):
        tile_side = 4
        assert period <= tile_side
        tg = TileGrid((16, 16), (tile_side, tile_side), ghost=0)
        rng = np.random.default_rng(seed)
        pos = np.array([8, 8])
        mask = np.zeros((16, 16), dtype=bool)
        mask[tuple(pos)] = True
        tg.sweep(mask)
        for step in range(1, 40):
            step_vec = rng.integers(-1, 2, size=2)
            pos = np.clip(pos + step_vec, 0, 15)
            mask[...] = False
            mask[tuple(pos)] = True
            # The walker must be inside the active set at all times.
            assert tg.voxel_mask()[tuple(pos)], f"escaped at step {step}"
            if step % period == 0:
                tg.sweep(mask)

    def test_two_walkers_opposite_directions(self):
        tg = TileGrid((20, 20), (4, 4), ghost=0)
        a, b = np.array([10, 10]), np.array([10, 10])
        mask = np.zeros((20, 20), dtype=bool)
        mask[tuple(a)] = True
        tg.sweep(mask)
        for step in range(1, 30):
            a = np.clip(a + [1, 1], 0, 19)
            b = np.clip(b + [-1, -1], 0, 19)
            vm = tg.voxel_mask()
            assert vm[tuple(a)] and vm[tuple(b)]
            if step % 4 == 0:
                mask[...] = False
                mask[tuple(a)] = True
                mask[tuple(b)] = True
                tg.sweep(mask)


class TestDilate:
    def test_single_cell(self):
        m = np.zeros((5, 5), dtype=bool)
        m[2, 2] = True
        d = _dilate(m)
        assert d[1:4, 1:4].all()
        assert d.sum() == 9

    def test_corner_cell(self):
        m = np.zeros((4, 4), dtype=bool)
        m[0, 0] = True
        d = _dilate(m)
        assert d[:2, :2].all()
        assert d.sum() == 4

    def test_matches_scipy(self):
        from scipy import ndimage

        rng = np.random.default_rng(0)
        m = rng.random((10, 10)) < 0.2
        expected = ndimage.binary_dilation(m, structure=np.ones((3, 3), bool))
        np.testing.assert_array_equal(_dilate(m), expected)

    def test_3d_matches_scipy(self):
        from scipy import ndimage

        rng = np.random.default_rng(1)
        m = rng.random((6, 6, 6)) < 0.15
        expected = ndimage.binary_dilation(m, structure=np.ones((3, 3, 3), bool))
        np.testing.assert_array_equal(_dilate(m), expected)
