"""Tests for FOI seeding, patchy lesions, and statistics plumbing."""

import numpy as np
import pytest

from repro.core.params import SimCovParams
from repro.core.seeding import apply_seeds, patchy_lesions, seed_infections
from repro.core.state import EpiState, VoxelBlock
from repro.core.stats import (
    N_COUNTS,
    REDUCED_FIELDS,
    RegionReducer,
    StepStats,
    TimeSeries,
    region_counts,
    stats_vector,
)
from repro.grid.box import Box
from repro.grid.spec import GridSpec
from repro.rng.streams import VoxelRNG


class TestSeeding:
    def test_count_and_distinct(self):
        p = SimCovParams(dim=(50, 50), num_infections=40)
        gids = seed_infections(p, VoxelRNG(1))
        assert len(gids) == 40
        assert len(np.unique(gids)) == 40
        assert gids.min() >= 0 and gids.max() < 2500

    def test_deterministic(self):
        p = SimCovParams(dim=(50, 50), num_infections=10)
        a = seed_infections(p, VoxelRNG(3))
        b = seed_infections(p, VoxelRNG(3))
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        p = SimCovParams(dim=(50, 50), num_infections=10)
        a = seed_infections(p, VoxelRNG(3))
        b = seed_infections(p, VoxelRNG(4))
        assert not np.array_equal(a, b)

    def test_saturated_grid(self):
        """FOI count equal to the voxel count still terminates."""
        p = SimCovParams(dim=(4, 4), num_infections=16)
        gids = seed_infections(p, VoxelRNG(0))
        assert sorted(gids.tolist()) == list(range(16))

    def test_zero_foi(self):
        p = SimCovParams(dim=(8, 8), num_infections=0)
        assert seed_infections(p, VoxelRNG(0)).size == 0


class TestApplySeeds:
    def test_whole_domain(self):
        p = SimCovParams(dim=(10, 10), num_infections=5)
        spec = GridSpec(p.dim)
        blk = VoxelBlock(spec, spec.domain)
        gids = seed_infections(p, VoxelRNG(2))
        n = apply_seeds(blk, gids)
        assert n == 5
        assert (blk.virions == 1.0).sum() == 5

    def test_subdomain_applies_only_owned(self):
        p = SimCovParams(dim=(10, 10), num_infections=20)
        spec = GridSpec(p.dim)
        gids = seed_infections(p, VoxelRNG(2))
        halves = [
            VoxelBlock(spec, Box((0, 0), (5, 10))),
            VoxelBlock(spec, Box((5, 0), (10, 10))),
        ]
        total = sum(apply_seeds(b, gids) for b in halves)
        assert total == 20

    def test_empty_gids(self):
        spec = GridSpec((4, 4))
        blk = VoxelBlock(spec, spec.domain)
        assert apply_seeds(blk, np.array([], dtype=np.int64)) == 0


class TestPatchyLesions:
    def test_lesions_are_disks(self):
        p = SimCovParams(dim=(60, 60))
        gids = patchy_lesions(p, VoxelRNG(5), num_lesions=3, mean_radius=4.0)
        assert gids.size >= 3  # at least the centers
        assert len(np.unique(gids)) == gids.size

    def test_radius_scales_footprint(self):
        p = SimCovParams(dim=(100, 100))
        small = patchy_lesions(p, VoxelRNG(5), num_lesions=5, mean_radius=2.0)
        large = patchy_lesions(p, VoxelRNG(5), num_lesions=5, mean_radius=8.0)
        assert large.size > small.size

    def test_within_domain(self):
        p = SimCovParams(dim=(30, 30))
        gids = patchy_lesions(p, VoxelRNG(9), num_lesions=10, mean_radius=6.0)
        assert gids.min() >= 0 and gids.max() < 900


class TestStats:
    def test_vector_layout(self):
        spec = GridSpec((6, 6))
        blk = VoxelBlock(spec, spec.domain)
        vec = stats_vector(blk)
        assert vec.shape == (len(REDUCED_FIELDS),)
        assert vec[0] == 36  # all healthy

    def test_vector_counts(self):
        spec = GridSpec((6, 6))
        blk = VoxelBlock(spec, spec.domain)
        blk.epi_state[1, 1] = EpiState.DEAD
        blk.epi_state[2, 2] = EpiState.EXPRESSING
        blk.tcell[3, 3] = 1
        blk.virions[4, 4] = 0.25
        vec = stats_vector(blk)
        stats = StepStats.from_vector(0, vec)
        assert stats.healthy == 34
        assert stats.expressing == 1
        assert stats.dead == 1
        assert stats.tcells_tissue == 1
        assert stats.virions_total == 0.25
        assert stats.infected == 1

    def test_ghosts_not_counted(self):
        spec = GridSpec((8, 8))
        blk = VoxelBlock(spec, Box((0, 0), (4, 4)))
        blk.virions[...] = 1.0  # including ghosts
        vec = stats_vector(blk)
        assert vec[6] == 16  # only owned voxels

    def test_from_vector_validates(self):
        with pytest.raises(ValueError):
            StepStats.from_vector(0, np.zeros(3))


class TestRegionReducer:
    """The cached-outside bookkeeping on a bare block (the stepping
    backends are covered by tests/properties/test_reduce_equivalence.py)."""

    def _block(self):
        spec = GridSpec((12, 10))
        blk = VoxelBlock(spec, spec.domain)
        blk.epi_state[2, 2] = EpiState.DEAD  # outside every region below
        blk.epi_state[6, 5] = EpiState.EXPRESSING
        blk.tcell[6, 6] = 1
        blk.virions[6, 5] = 0.25
        return blk

    def test_region_counts_counts_only_the_region(self):
        blk = self._block()
        inside = region_counts(blk, (slice(5, 8), slice(4, 8)))
        assert inside.dtype == np.int64 and inside.shape == (N_COUNTS,)
        assert inside.tolist() == [11, 0, 1, 0, 0, 1]
        assert not region_counts(blk, None).any()

    def test_counts_equal_whole_domain_whatever_the_region(self):
        """The integer half is exact for any region; the float half needs
        both float fields zero outside it (the gate's invariant)."""
        blk = self._block()  # its one virion lies inside both regions
        want = stats_vector(blk)
        for region in (blk.interior, (slice(5, 8), slice(4, 8))):
            red = RegionReducer(blk)
            assert np.array_equal(red.reduce(region), want), region
        red = RegionReducer(blk)
        assert np.array_equal(red.counts(None), want[:N_COUNTS])
        blk.virions[...] = 0.0  # the None region: zero fields everywhere
        assert np.array_equal(red.reduce(None), stats_vector(blk))

    def test_inside_changes_are_seen_and_rebase_moves_the_cache(self):
        blk = self._block()
        red = RegionReducer(blk)
        small, large = (slice(5, 8), slice(4, 8)), (slice(4, 9), slice(3, 9))
        red.counts(small)
        blk.epi_state[6, 5] = EpiState.APOPTOTIC
        assert np.array_equal(red.reduce(small), stats_vector(blk))
        red.rebase(large)
        blk.epi_state[4, 3] = EpiState.INCUBATING  # only in the large one
        assert np.array_equal(red.reduce(large), stats_vector(blk))

    def test_reset_recounts_a_rewritten_block(self):
        blk = self._block()
        red = RegionReducer(blk)
        region = (slice(5, 8), slice(4, 8))
        red.counts(region)
        blk.epi_state[2, 2] = EpiState.HEALTHY  # behind the reducer's back
        assert not np.array_equal(red.reduce(region), stats_vector(blk))
        red.reset()
        assert np.array_equal(red.reduce(region), stats_vector(blk))


class TestTimeSeries:
    def _mk(self, step, virions):
        return StepStats(step, 10, 0, 0, 0, 0, 0, virions, 0.0)

    def test_append_and_field(self):
        ts = TimeSeries()
        for i, v in enumerate([1.0, 5.0, 3.0]):
            ts.append(self._mk(i, v))
        np.testing.assert_array_equal(ts.field("virions_total"), [1, 5, 3])
        np.testing.assert_array_equal(ts.steps(), [0, 1, 2])
        assert len(ts) == 3
        assert ts[1].virions_total == 5.0

    def test_peak(self):
        ts = TimeSeries()
        for i, v in enumerate([1.0, 5.0, 3.0]):
            ts.append(self._mk(i, v))
        assert ts.peak("virions_total") == (1, 5.0)

    def test_peak_empty_raises(self):
        with pytest.raises(ValueError):
            TimeSeries().peak("virions_total")

    def test_to_rows(self):
        ts = TimeSeries()
        ts.append(self._mk(0, 2.0))
        rows = ts.to_rows()
        assert rows[0]["virions_total"] == 2.0
        assert "healthy" in rows[0]
