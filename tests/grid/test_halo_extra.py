"""Gap-filling tests: ghost widths, edge cases."""

import numpy as np
import pytest

from repro.grid.decomposition import Decomposition
from repro.grid.halo import HaloExchanger, MergeMode
from repro.grid.spec import GridSpec


class TestGhostWidth2:
    def test_wider_halo_replace(self):
        """ghost=2 halos (e.g. for 2-voxel-per-step physics) exchange
        correctly too."""
        spec = GridSpec((12, 12))
        decomp = Decomposition.blocks(spec, 4)
        ex = HaloExchanger(decomp, ghost=2)
        assert ex.local_shape(0) == (10, 10)
        g = np.arange(144).reshape(12, 12).astype(np.int64)
        arrays = ex.scatter_global(g)
        ex.exchange(arrays, MergeMode.REPLACE)
        for rank in range(4):
            ext = ex.extents[rank]
            np.testing.assert_array_equal(
                arrays[rank][ex.region_slices(rank, ext)],
                g[ext.slices_from((0, 0))],
            )

    def test_wider_halo_max(self):
        spec = GridSpec((12, 12))
        decomp = Decomposition.blocks(spec, 4)
        ex = HaloExchanger(decomp, ghost=2)
        rng = np.random.default_rng(1)
        arrays = []
        truth = np.zeros(spec.shape, dtype=np.uint64)
        for rank in range(4):
            arr = ex.allocate(rank, np.uint64)
            ext = ex.extents[rank]
            sl = ex.region_slices(rank, ext)
            arr[sl] = rng.integers(0, 100, size=arr[sl].shape, dtype=np.uint64)
            gsl = ext.slices_from((0, 0))
            np.maximum(truth[gsl], arr[sl], out=truth[gsl])
            arrays.append(arr)
        ex.exchange(arrays, MergeMode.MAX)
        for rank in range(4):
            ext = ex.extents[rank]
            np.testing.assert_array_equal(
                arrays[rank][ex.region_slices(rank, ext)],
                truth[ext.slices_from((0, 0))],
            )


class TestSingleRank:
    def test_no_routes(self):
        spec = GridSpec((6, 6))
        decomp = Decomposition.blocks(spec, 1)
        ex = HaloExchanger(decomp)
        assert ex.replace_routes == []
        arr = ex.allocate(0, np.float64)
        ex.exchange([arr], MergeMode.REPLACE)  # no-op, no error

    def test_gather_scatter_degenerate(self):
        spec = GridSpec((5, 7))
        decomp = Decomposition.blocks(spec, 1)
        ex = HaloExchanger(decomp)
        g = np.arange(35.0).reshape(5, 7)
        np.testing.assert_array_equal(
            ex.gather_global(ex.scatter_global(g)), g
        )
