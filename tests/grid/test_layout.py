"""Tests for the tile-contiguous zig-zag layout (Fig 3B)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.grid.layout import TiledLayout
from repro.grid.tiling import TileGrid


def layout(owned=(12, 12), tile=(3, 3)):
    return TiledLayout(TileGrid(owned, tile, ghost=0))


class TestBijection:
    def test_offsets_are_a_permutation(self):
        lay = layout()
        coords = np.stack(np.meshgrid(np.arange(12), np.arange(12), indexing="ij"), -1)
        offs = lay.offset_of(coords.reshape(-1, 2))
        assert sorted(offs.tolist()) == list(range(144))

    def test_roundtrip(self):
        lay = layout()
        offs = np.arange(144)
        back = lay.offset_of(lay.coords_of(offs))
        np.testing.assert_array_equal(back, offs)

    def test_ragged_edges_bijective(self):
        lay = layout((10, 7), (4, 4))
        offs = np.arange(70)
        coords = lay.coords_of(offs)
        assert coords.min() >= 0
        assert (coords < np.array([10, 7])).all()
        np.testing.assert_array_equal(lay.offset_of(coords), offs)

    def test_3d_bijective(self):
        lay = TiledLayout(TileGrid((6, 6, 6), (2, 3, 2), ghost=0))
        offs = np.arange(216)
        np.testing.assert_array_equal(lay.offset_of(lay.coords_of(offs)), offs)

    @given(
        ow=st.integers(min_value=4, max_value=20),
        oh=st.integers(min_value=4, max_value=20),
        tw=st.integers(min_value=1, max_value=4),
        th=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=40, deadline=None)
    def test_bijection_property(self, ow, oh, tw, th):
        lay = TiledLayout(TileGrid((ow, oh), (tw, th), ghost=0))
        offs = np.arange(ow * oh)
        np.testing.assert_array_equal(lay.offset_of(lay.coords_of(offs)), offs)


class TestTileContiguity:
    def test_tile_voxels_contiguous_in_memory(self):
        """The defining property of §3.2: each tile's voxels fill a
        contiguous span of memory."""
        tg = TileGrid((12, 12), (3, 3), ghost=0)
        lay = TiledLayout(tg)
        for idx in np.ndindex(4, 4):
            box = tg.tile_box(idx)
            offs = np.sort(lay.offset_of(box.coords()))
            assert offs[-1] - offs[0] == box.size - 1

    def test_zigzag_path_visits_adjacent_tiles(self):
        """Consecutive tiles along the layout path are spatial neighbors."""
        tg = TileGrid((12, 12), (3, 3), ghost=0)
        lay = TiledLayout(tg)
        order = lay._tile_order
        for a, b in zip(order, order[1:]):
            assert max(abs(x - y) for x, y in zip(a, b)) == 1

    def test_zigzag_path_adjacent_3d(self):
        tg = TileGrid((8, 8, 8), (2, 2, 2), ghost=0)
        lay = TiledLayout(tg)
        order = lay._tile_order
        for a, b in zip(order, order[1:]):
            assert max(abs(x - y) for x, y in zip(a, b)) == 1


class TestLocality:
    def test_tiled_layout_beats_row_major_on_columns(self):
        """Fig 3's motivation: nearby voxels are more likely cached.  For a
        square region, mean memory distance between vertical neighbors is
        much smaller with 2D tiles than with plain row-major order (where it
        is the full row width)."""
        lay = layout((16, 16), (4, 4))
        tiled = lay.mean_stride()
        row_major = 16.0  # distance between (i, j) and (i+1, j) in C order
        assert tiled < row_major

    def test_degenerate_single_row(self):
        lay = TiledLayout(TileGrid((1, 8), (1, 4), ghost=0))
        assert lay.mean_stride() == 0.0
