"""Tests for airway structure (empty voxels, §2.2)."""

import numpy as np
import pytest

from repro.core.model import SequentialSimCov
from repro.core.params import SimCovParams
from repro.core.state import EpiState, VoxelBlock
from repro.core.structure import apply_structure, branching_airways_2d
from repro.grid.box import Box
from repro.grid.spec import GridSpec
from repro.dist import DistSimCov


class TestAirwayGeneration:
    def test_tree_shape(self):
        spec = GridSpec((64, 64))
        gids = branching_airways_2d(spec, generations=3)
        assert gids.size > 0
        frac = gids.size / spec.num_voxels
        assert 0.01 < frac < 0.5  # corridors, not a flood

    def test_trunk_enters_left_edge(self):
        spec = GridSpec((64, 64))
        coords = spec.unravel(branching_airways_2d(spec, generations=2))
        assert (coords[:, 0] == 0).any()

    def test_deterministic(self):
        spec = GridSpec((48, 48))
        a = branching_airways_2d(spec)
        b = branching_airways_2d(spec)
        np.testing.assert_array_equal(a, b)

    def test_more_generations_more_voxels(self):
        spec = GridSpec((96, 96))
        shallow = branching_airways_2d(spec, generations=1)
        deep = branching_airways_2d(spec, generations=5)
        assert deep.size > shallow.size

    def test_rejects_3d(self):
        with pytest.raises(ValueError):
            branching_airways_2d(GridSpec((8, 8, 8)))


class TestAirways3D:
    def test_tree_shape(self):
        from repro.core.structure import branching_airways_3d

        spec = GridSpec((24, 24, 24))
        gids = branching_airways_3d(spec, generations=3)
        assert gids.size > 0
        assert gids.size / spec.num_voxels < 0.3
        coords = spec.unravel(gids)
        assert (coords[:, 0] == 0).any()  # trunk enters the low-x face

    def test_rejects_2d(self):
        from repro.core.structure import branching_airways_3d

        with pytest.raises(ValueError):
            branching_airways_3d(GridSpec((8, 8)))

    def test_3d_structured_simulation_runs(self):
        from repro.core.structure import branching_airways_3d
        from repro.core.model import SequentialSimCov

        p = SimCovParams.fast_test(dim=(12, 12, 12), num_infections=2,
                                   num_steps=30)
        spec = GridSpec(p.dim)
        airways = branching_airways_3d(spec, generations=2, trunk_radius=1)
        sim = SequentialSimCov(p, seed=5, structure_gids=airways)
        sim.run()
        s = sim.series[-1]
        total = s.healthy + s.incubating + s.expressing + s.apoptotic + s.dead
        assert total == p.num_voxels - len(airways)


class TestApplyStructure:
    def test_empties_epithelium(self):
        spec = GridSpec((16, 16))
        blk = VoxelBlock(spec, spec.domain)
        n = apply_structure(blk, np.array([0, 17, 34]))
        assert n == 3
        assert blk.epi_state[1, 1] == EpiState.EMPTY  # gid 0 at (0,0)

    def test_applies_in_ghosts_too(self):
        spec = GridSpec((16, 8))
        blk = VoxelBlock(spec, Box((0, 0), (8, 8)))
        # gid of global (8, 0): first ghost row on the high-x side.
        gid = spec.ravel(np.array([8, 0]))
        n = apply_structure(blk, np.array([gid]))
        assert n == 0  # not owned
        assert blk.epi_state[9, 1] == EpiState.EMPTY  # but ghost updated

    def test_none_and_empty(self):
        spec = GridSpec((8, 8))
        blk = VoxelBlock(spec, spec.domain)
        assert apply_structure(blk, None) == 0
        assert apply_structure(blk, np.array([], dtype=np.int64)) == 0


class TestStructuredSimulation:
    @pytest.fixture(scope="class")
    def run(self):
        p = SimCovParams.fast_test(dim=(48, 48), num_infections=3,
                                   num_steps=120)
        spec = GridSpec(p.dim)
        airways = branching_airways_2d(spec, generations=3)
        sim = SequentialSimCov(p, seed=4, structure_gids=airways)
        sim.run()
        return p, airways, sim

    def test_airway_voxels_never_infected(self, run):
        p, airways, sim = run
        spec = sim.spec
        coords = spec.unravel(airways) + 1  # padded
        states = sim.block.epi_state[tuple(coords.T)]
        assert (states == EpiState.EMPTY).all()

    def test_cell_conservation_excludes_airways(self, run):
        p, airways, sim = run
        s = sim.series[-1]
        total = s.healthy + s.incubating + s.expressing + s.apoptotic + s.dead
        assert total == p.num_voxels - len(airways)

    def test_virus_diffuses_through_airways(self, run):
        """Airways carry no cells but concentrations still move through."""
        p, airways, sim = run
        coords = sim.spec.unravel(airways) + 1
        assert sim.block.virions[tuple(coords.T)].max() > 0

    def test_parallel_matches_sequential_with_structure(self, run):
        p, airways, sim = run
        with DistSimCov(p, nranks=4, seed=4, structure_gids=airways) as dist:
            dist.run(120)
            for f in ("epi_state", "tcell", "virions"):
                np.testing.assert_array_equal(
                    getattr(sim.block, f)[sim.block.interior],
                    dist.gather_field(f),
                    err_msg=f,
                )
