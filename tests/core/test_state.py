"""Tests for VoxelBlock state arrays."""

import tracemalloc

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.state import EnsembleBlock, EpiState, VoxelBlock, block_geometry
from repro.grid.box import Box
from repro.grid.spec import GridSpec


class TestVoxelBlock:
    def test_whole_domain_block(self):
        spec = GridSpec((8, 6))
        blk = VoxelBlock(spec, spec.domain)
        assert blk.shape == (10, 8)
        assert blk.interior == (slice(1, 9), slice(1, 7))
        assert blk.origin == (-1, -1)

    def test_all_interior_healthy(self):
        spec = GridSpec((8, 6))
        blk = VoxelBlock(spec, spec.domain)
        assert (blk.epi_state[blk.interior] == EpiState.HEALTHY).all()
        # Ghost ring outside the domain is EMPTY.
        assert (blk.epi_state[0, :] == EpiState.EMPTY).all()

    def test_subdomain_ghosts_in_domain_are_healthy(self):
        spec = GridSpec((8, 8))
        blk = VoxelBlock(spec, Box((0, 0), (4, 4)))
        # Ghost at local (5, 2) = global (4, 1): inside domain.
        assert blk.in_domain[5, 2]
        assert blk.epi_state[5, 2] == EpiState.HEALTHY
        # Ghost at local (0, 0) = global (-1, -1): outside.
        assert not blk.in_domain[0, 0]
        assert blk.epi_state[0, 0] == EpiState.EMPTY

    def test_gid_matches_spec(self):
        spec = GridSpec((8, 8))
        blk = VoxelBlock(spec, Box((2, 2), (6, 6)))
        # Local (1,1) is global (2,2).
        assert blk.gid[1, 1] == spec.ravel(np.array([2, 2]))
        assert blk.gid[4, 4] == spec.ravel(np.array([5, 5]))

    def test_gid_negative_outside(self):
        spec = GridSpec((4, 4))
        blk = VoxelBlock(spec, spec.domain)
        assert blk.gid[0, 0] == -1

    def test_3d_block(self):
        spec = GridSpec((4, 4, 4))
        blk = VoxelBlock(spec, spec.domain)
        assert blk.shape == (6, 6, 6)
        assert (blk.epi_state[blk.interior] == EpiState.HEALTHY).all()


class TestActivityMask:
    def test_fresh_block_inactive(self):
        spec = GridSpec((6, 6))
        blk = VoxelBlock(spec, spec.domain)
        assert not blk.activity_mask(1e-6).any()

    def test_virions_activate(self):
        spec = GridSpec((6, 6))
        blk = VoxelBlock(spec, spec.domain)
        blk.virions[3, 3] = 0.5
        mask = blk.activity_mask(1e-6)
        assert mask.sum() == 1
        assert mask[2, 2]  # interior coords are padded coords - 1

    def test_tcell_and_infected_activate(self):
        spec = GridSpec((6, 6))
        blk = VoxelBlock(spec, spec.domain)
        blk.tcell[1, 1] = 1
        blk.epi_state[4, 4] = EpiState.EXPRESSING
        assert blk.activity_mask(1e-6).sum() == 2

    def test_subthreshold_chemokine_inactive(self):
        spec = GridSpec((6, 6))
        blk = VoxelBlock(spec, spec.domain)
        blk.chemokine[2, 2] = 1e-9
        assert not blk.activity_mask(1e-6).any()
        blk.chemokine[2, 2] = 1e-3
        assert blk.activity_mask(1e-6).sum() == 1

    def test_dead_cells_inactive(self):
        spec = GridSpec((6, 6))
        blk = VoxelBlock(spec, spec.domain)
        blk.epi_state[blk.interior] = EpiState.DEAD
        assert not blk.activity_mask(1e-6).any()


class TestFlatAddressing:
    """The agent kernels scatter through ``arr.reshape(-1)``: on anything
    but a C-contiguous array that is a silent copy and the write is lost,
    so every storage a kernel can be handed must reshape to a view."""

    @staticmethod
    def assert_flat_views(obj, names):
        for name in names:
            arr = getattr(obj, name)
            assert np.shares_memory(arr, arr.reshape(-1)), name

    def test_blocks_and_member_views(self):
        from repro.core.kernels import IntentArrays
        from repro.core.state import EnsembleBlock

        fields = tuple(VoxelBlock.FIELD_DTYPES) + ("gid_spatial", "in_domain_spatial")
        for dim in ((6, 5), (4, 5, 3)):
            spec = GridSpec(dim)
            self.assert_flat_views(VoxelBlock(spec, spec.domain), fields)
            ens = EnsembleBlock(spec, spec.domain, batch=3)
            self.assert_flat_views(ens, fields)
            self.assert_flat_views(ens.member_view(1), fields)
            self.assert_flat_views(IntentArrays(ens.shape), IntentArrays.FIELD_DTYPES)
            # The batched geometry is one spatial copy, not B of them.
            assert ens.gid_spatial.shape == ens.shape[1:]
            assert not np.shares_memory(ens.gid, ens.gid.reshape(-1))

    def test_dist_rank_storage(self):
        from repro.core.kernels import IntentArrays
        from repro.core.params import SimCovParams
        from repro.dist import DistSimCov
        from repro.dist.worker import RankBackend

        p = SimCovParams.fast_test(dim=(12, 12), num_infections=1, num_steps=1)
        with DistSimCov(p, nranks=2) as dist:
            worker = RankBackend(dist.backend.runtime.worker_spec(0))
            try:
                self.assert_flat_views(worker.block, VoxelBlock.FIELD_DTYPES)
                self.assert_flat_views(worker.intents, IntentArrays.FIELD_DTYPES)
                # Intents are the rank's own: none lies in a shared segment.
                for seg in worker._segments:
                    for arr in seg.arrays.values():
                        for name in IntentArrays.FIELD_DTYPES:
                            assert not np.shares_memory(
                                getattr(worker.intents, name), arr
                            )
            finally:
                worker.close()

    def test_non_contiguous_storage_is_refused(self):
        import pytest

        spec = GridSpec((4, 4))
        arrays = {
            name: np.zeros((6, 6), dtype=dt).T if name == "tcell"
            else np.zeros((6, 6), dtype=dt)
            for name, dt in VoxelBlock.FIELD_DTYPES.items()
        }
        with pytest.raises(ValueError, match="'tcell'.*C-contiguous"):
            VoxelBlock.from_arrays(spec, spec.domain, arrays)


def _geometry_by_coordinates(spec, owned, ghost):
    """The old rule, written out: every padded voxel's coordinates, the
    domain test on them, and the C-order ravel of those inside."""
    ext = owned.expand(ghost)
    shape = ext.shape
    coords = ext.coords().reshape(shape + (spec.ndim,))
    inside = np.all((coords >= 0) & (coords < np.array(spec.shape)), axis=-1)
    gid = np.full(shape, -1, dtype=np.int64)
    gid[inside] = spec.ravel(coords[inside])
    return gid, inside


@st.composite
def _blocks(draw):
    """2D / 3D domains (200 x 136 and 20 x 13 x 6 among them), boxes
    touching the domain edge or inside it, ghosts 1 or 2 wide."""
    ndim = draw(st.sampled_from([2, 3]))
    ragged = (200, 136) if ndim == 2 else (20, 13, 6)
    shape = draw(st.just(ragged) | st.tuples(
        *[st.integers(1, 24 if ndim == 2 else 9)] * ndim))
    lo = tuple(draw(st.integers(0, s - 1)) for s in shape)
    hi = tuple(draw(st.integers(l + 1, s)) for l, s in zip(lo, shape))
    return GridSpec(shape), Box(lo, hi), draw(st.integers(1, 2))


class TestBlockGeometry:
    @given(case=_blocks(), batch=st.sampled_from([None, 1, 3]))
    @settings(max_examples=120, deadline=None)
    def test_separable_rule_is_the_coordinate_rule(self, case, batch):
        spec, owned, ghost = case
        want = _geometry_by_coordinates(spec, owned, ghost)
        got = block_geometry(spec, owned, ghost)
        block = (VoxelBlock(spec, owned, ghost=ghost) if batch is None
                 else EnsembleBlock(spec, owned, batch, ghost=ghost))
        for (name, w), g, shared in zip(
            (("gid", want[0]), ("in_domain", want[1])), got,
            (block.gid_spatial, block.in_domain_spatial),
        ):
            for arr in (g, shared):
                assert arr.dtype == w.dtype and arr.flags.c_contiguous, name
                np.testing.assert_array_equal(arr, w, err_msg=name)
        lead = () if batch is None else (batch,)
        assert block.gid.shape == block.in_domain.shape == lead + want[0].shape
        assert (block.epi_state[block.in_domain] == EpiState.HEALTHY).all()

    def test_construction_holds_no_coordinate_temporaries(self):
        """Building a 1024 x 1024 block peaks within 1.25x the bytes of its
        own arrays: no (N, ndim) int64 coordinate table comes back."""
        spec = GridSpec((1024, 1024))
        tracemalloc.start()
        try:
            block = VoxelBlock(spec, spec.domain)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        own = sum(getattr(block, name).nbytes
                  for name in [*VoxelBlock.FIELD_DTYPES, "gid", "in_domain"])
        assert peak <= 1.25 * own, (peak, own)
