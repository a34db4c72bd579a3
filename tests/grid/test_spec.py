"""Unit tests for GridSpec and neighborhood stencils."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.grid.box import Box
from repro.grid.spec import GridSpec, moore_offsets


class TestStencils:
    def test_moore_counts(self):
        assert len(moore_offsets(2)) == 8
        assert len(moore_offsets(3)) == 26

    def test_no_zero_offset(self):
        for nd in (2, 3):
            assert not np.any(np.all(moore_offsets(nd) == 0, axis=1))

    def test_deterministic_order(self):
        np.testing.assert_array_equal(moore_offsets(2), moore_offsets(2))
        assert tuple(moore_offsets(2)[0]) == (-1, -1)


class TestGridSpec:
    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            GridSpec((10,))
        with pytest.raises(ValueError):
            GridSpec((10, 0))
        with pytest.raises(ValueError):
            GridSpec((2, 2, 2, 2))

    def test_num_voxels(self):
        assert GridSpec((10, 20)).num_voxels == 200
        assert GridSpec((4, 5, 6)).num_voxels == 120

    def test_ravel_unravel_roundtrip_2d(self):
        spec = GridSpec((7, 11))
        coords = spec.domain.coords()
        ids = spec.ravel(coords)
        assert len(np.unique(ids)) == spec.num_voxels
        assert ids.min() == 0 and ids.max() == spec.num_voxels - 1
        np.testing.assert_array_equal(spec.unravel(ids), coords)

    def test_ravel_unravel_roundtrip_3d(self):
        spec = GridSpec((3, 4, 5))
        coords = spec.domain.coords()
        ids = spec.ravel(coords)
        np.testing.assert_array_equal(spec.unravel(ids), coords)
        assert len(np.unique(ids)) == 60

    def test_ravel_matches_numpy(self):
        spec = GridSpec((13, 17))
        coords = spec.domain.coords()
        expected = np.ravel_multi_index((coords[:, 0], coords[:, 1]), spec.shape)
        np.testing.assert_array_equal(spec.ravel(coords), expected)

    def test_id_grid_matches_ravel(self):
        spec = GridSpec((9, 9))
        box = Box((2, 3), (5, 8))
        grid = spec.id_grid(box)
        assert grid.shape == box.shape
        np.testing.assert_array_equal(
            grid.ravel(), spec.ravel(box.coords())
        )

    def test_id_grid_3d(self):
        spec = GridSpec((4, 5, 6))
        box = Box((1, 1, 1), (3, 4, 5))
        grid = spec.id_grid(box)
        np.testing.assert_array_equal(grid.ravel(), spec.ravel(box.coords()))

    @given(
        nx=st.integers(min_value=1, max_value=40),
        ny=st.integers(min_value=1, max_value=40),
        n=st.integers(min_value=0, max_value=100),
    )
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_property(self, nx, ny, n):
        spec = GridSpec((nx, ny))
        ids = np.arange(min(n, spec.num_voxels))
        np.testing.assert_array_equal(spec.ravel(spec.unravel(ids)), ids)
