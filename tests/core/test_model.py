"""Behavioral tests for the sequential reference simulation."""

import numpy as np
import pytest

from repro.core.model import SequentialSimCov
from repro.core.params import SimCovParams
from repro.core.state import EpiState


@pytest.fixture(scope="module")
def long_run():
    """One shared 350-step run on a small grid (module-scoped for speed)."""
    p = SimCovParams.fast_test(dim=(32, 32), num_infections=2, num_steps=350)
    sim = SequentialSimCov(p, seed=11)
    sim.run()
    return sim


class TestConstruction:
    def test_seeds_applied(self):
        p = SimCovParams.fast_test(dim=(16, 16), num_infections=3)
        sim = SequentialSimCov(p, seed=0)
        assert (sim.block.virions == 1.0).sum() == 3

    def test_explicit_seed_gids(self):
        p = SimCovParams.fast_test(dim=(16, 16))
        sim = SequentialSimCov(p, seed=0, seed_gids=np.array([0, 5, 17]))
        assert (sim.block.virions == 1.0).sum() == 3

    def test_reproducible(self):
        p = SimCovParams.fast_test(dim=(16, 16), num_infections=2)
        a = SequentialSimCov(p, seed=5)
        b = SequentialSimCov(p, seed=5)
        for _ in range(40):
            sa, sb = a.step(), b.step()
            assert sa == sb
        np.testing.assert_array_equal(a.block.epi_state, b.block.epi_state)
        np.testing.assert_array_equal(a.block.virions, b.block.virions)
        np.testing.assert_array_equal(a.block.tcell, b.block.tcell)

    def test_different_seeds_diverge(self):
        p = SimCovParams.fast_test(dim=(16, 16), num_infections=2)
        a = SequentialSimCov(p, seed=5)
        b = SequentialSimCov(p, seed=6)
        for _ in range(60):
            a.step()
            b.step()
        assert not np.array_equal(a.block.epi_state, b.block.epi_state)


class TestInvariants:
    def test_total_cells_conserved(self, long_run):
        """Epithelial cells change state but never (dis)appear."""
        n = long_run.params.num_voxels
        for i in range(0, len(long_run.series), 25):
            s = long_run.series[i]
            total = s.healthy + s.incubating + s.expressing + s.apoptotic + s.dead
            assert total == n

    def test_concentrations_bounded(self, long_run):
        blk = long_run.block
        assert blk.virions.min() >= 0.0
        assert blk.virions.max() <= 1.0
        assert blk.chemokine.min() >= 0.0
        assert blk.chemokine.max() <= 1.0

    def test_occupancy_invariant(self, long_run):
        assert long_run.block.tcell.max() <= 1

    def test_tcell_lifetimes_positive(self, long_run):
        blk = long_run.block
        assert (blk.tcell_tissue_time[blk.tcell == 1] >= 1).all()

    def test_stats_nonnegative(self, long_run):
        for name in ("virions_total", "chemokine_total", "tcells_tissue",
                     "tcells_vasculature"):
            assert (long_run.series.field(name) >= 0).all()


class TestDynamics:
    """The Fig 5 curve shape: growth, immune response, decline."""

    def test_infection_grows_then_declines(self, long_run):
        v = long_run.series.field("virions_total")
        peak_step, peak = long_run.series.peak("virions_total")
        assert peak > 50 * v[0]  # substantial growth
        assert 50 < peak_step < 330  # interior peak
        assert v[-1] < 0.8 * peak  # declining after the peak

    def test_tcells_respond_after_delay(self, long_run):
        tc = long_run.series.field("tcells_tissue")
        delay = long_run.params.tcell_initial_delay
        assert tc[:delay].max() == 0
        assert tc[-1] > 0 or tc.max() > 10

    def test_apoptosis_follows_tcells(self, long_run):
        apop = long_run.series.field("apoptotic")
        assert apop.max() > 0
        first_apop = int(np.argmax(apop > 0))
        assert first_apop >= long_run.params.tcell_initial_delay

    def test_dead_monotone(self, long_run):
        dead = long_run.series.field("dead")
        assert (np.diff(dead) >= 0).all()

    def test_no_infection_without_foi(self):
        p = SimCovParams.fast_test(dim=(16, 16), num_infections=0, num_steps=60)
        sim = SequentialSimCov(p, seed=1)
        sim.run()
        s = sim.series[-1]
        assert s.healthy == p.num_voxels
        assert s.virions_total == 0.0
        assert s.tcells_tissue == 0

    def test_more_foi_faster_spread(self):
        base = SimCovParams.fast_test(dim=(48, 48), num_steps=120)
        lo = SequentialSimCov(base.with_(num_infections=1), seed=3)
        hi = SequentialSimCov(base.with_(num_infections=16), seed=3)
        lo.run()
        hi.run()
        assert (
            hi.series.field("virions_total")[-1]
            > 3 * lo.series.field("virions_total")[-1]
        )

    def test_activity_fraction_grows(self):
        p = SimCovParams.fast_test(dim=(48, 48), num_infections=4, num_steps=80)
        sim = SequentialSimCov(p, seed=2)
        f0 = sim.activity_fraction()
        sim.run()
        assert sim.activity_fraction() > f0


class TestRunHelper:
    def test_run_default_steps(self):
        p = SimCovParams.fast_test(dim=(8, 8), num_steps=17)
        sim = SequentialSimCov(p, seed=0)
        series = sim.run()
        assert len(series) == 17
        assert sim.step_num == 17

    def test_run_resumable(self):
        p = SimCovParams.fast_test(dim=(8, 8))
        sim = SequentialSimCov(p, seed=0)
        sim.run(5)
        sim.run(5)
        assert sim.step_num == 10
        assert [s.step for s in sim.series] == list(range(10))
