"""Tests for domain decomposition: exact partition, ownership, adjacency."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.grid.decomposition import Decomposition, DecompositionKind
from repro.grid.spec import GridSpec


class TestConstruction:
    def test_linear_2d(self):
        d = Decomposition.linear(GridSpec((8, 4)), 4)
        assert d.nranks == 4
        assert d.proc_grid == (4, 1)
        assert all(b.shape == (2, 4) for b in d.boxes)

    def test_blocks_2d_square(self):
        d = Decomposition.blocks(GridSpec((8, 8)), 4)
        assert d.proc_grid == (2, 2)
        assert all(b.shape == (4, 4) for b in d.boxes)

    def test_blocks_nonsquare_counts(self):
        d = Decomposition.blocks(GridSpec((16, 8)), 8)
        # Longer axis gets more cuts.
        assert d.proc_grid in [(4, 2)]

    def test_blocks_3d(self):
        d = Decomposition.blocks(GridSpec((8, 8, 8)), 8)
        assert d.proc_grid == (2, 2, 2)

    def test_make_dispatch(self):
        spec = GridSpec((8, 8))
        assert Decomposition.make(spec, 4, DecompositionKind.LINEAR).proc_grid == (4, 1)
        assert Decomposition.make(spec, 4, DecompositionKind.BLOCK).proc_grid == (2, 2)

    def test_too_many_ranks_rejected(self):
        with pytest.raises(ValueError):
            Decomposition.linear(GridSpec((3, 3)), 5)

    def test_uneven_split(self):
        d = Decomposition.linear(GridSpec((10, 4)), 3)
        sizes = [b.shape[0] for b in d.boxes]
        assert sorted(sizes) == [3, 3, 4]
        assert sum(sizes) == 10


class TestPartition:
    @pytest.mark.parametrize(
        "shape,nranks,kind",
        [
            ((12, 12), 4, DecompositionKind.BLOCK),
            ((12, 12), 6, DecompositionKind.BLOCK),
            ((13, 7), 3, DecompositionKind.LINEAR),
            ((6, 6, 6), 8, DecompositionKind.BLOCK),
            ((9, 5, 7), 6, DecompositionKind.BLOCK),
        ],
    )
    def test_boxes_tile_domain_exactly(self, shape, nranks, kind):
        spec = GridSpec(shape)
        d = Decomposition.make(spec, nranks, kind)
        counts = np.zeros(spec.shape, dtype=int)
        for b in d.boxes:
            counts[b.slices_from((0,) * spec.ndim)] += 1
        assert (counts == 1).all()

    def test_owner_of_matches_boxes(self):
        spec = GridSpec((11, 9))
        d = Decomposition.blocks(spec, 6)
        coords = spec.domain.coords()
        owners = d.owner_of(coords)
        for rank in range(d.nranks):
            inside = d.boxes[rank].contains(coords)
            np.testing.assert_array_equal(owners == rank, inside)


class TestNeighbors:
    def test_interior_rank_has_8_neighbors(self):
        d = Decomposition.blocks(GridSpec((12, 12)), 9)
        # Center rank of the 3x3 process grid.
        center = [r for r in range(9) if d.rank_coords(r) == (1, 1)][0]
        assert len(d.neighbors(center)) == 8

    def test_corner_rank_has_3_neighbors(self):
        d = Decomposition.blocks(GridSpec((12, 12)), 9)
        corner = [r for r in range(9) if d.rank_coords(r) == (0, 0)][0]
        assert len(d.neighbors(corner)) == 3

    def test_neighbor_symmetry(self):
        d = Decomposition.blocks(GridSpec((16, 16)), 8)
        for r in range(d.nranks):
            for o in d.neighbors(r):
                assert r in d.neighbors(o)

    def test_neighbor_graph_connected(self):
        """A breadth-first walk over ``neighbors`` reaches every rank."""
        d = Decomposition.blocks(GridSpec((16, 16)), 8)
        seen = frontier = {0}
        while frontier:
            frontier = {o for r in frontier for o in d.neighbors(r)} - seen
            seen = seen | frontier
        assert seen == set(range(8))

    def test_linear_halo_larger_than_block(self):
        """Fig 1B's point: block decomposition reduces surface."""
        spec = GridSpec((64, 64))
        lin = Decomposition.linear(spec, 16)
        blk = Decomposition.blocks(spec, 16)
        lin_surface = sum(lin.halo_surface_voxels(r) for r in range(16))
        blk_surface = sum(blk.halo_surface_voxels(r) for r in range(16))
        assert blk_surface < lin_surface


class TestProperties:
    @given(
        nx=st.integers(min_value=4, max_value=30),
        ny=st.integers(min_value=4, max_value=30),
        nranks=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=40, deadline=None)
    def test_partition_property(self, nx, ny, nranks):
        # Feasibility: a prime rank count must fit along one axis.
        if nranks > max(nx, ny):
            return
        spec = GridSpec((nx, ny))
        try:
            d = Decomposition.blocks(spec, nranks)
        except ValueError:
            # Legitimately infeasible (e.g. 5 ranks on 4x4) — the error is
            # the contract.
            assert nranks > min(nx, ny)
            return
        total = sum(b.size for b in d.boxes)
        assert total == spec.num_voxels
        owners = d.owner_of(spec.domain.coords())
        assert set(np.unique(owners)) == set(range(d.nranks))

    def test_infeasible_prime_raises_clearly(self):
        with pytest.raises(ValueError, match="block-decompose"):
            Decomposition.blocks(GridSpec((4, 4)), 5)

    def test_prime_that_fits_one_axis(self):
        d = Decomposition.blocks(GridSpec((4, 7)), 5)
        assert d.proc_grid == (1, 5)
