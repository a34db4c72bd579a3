"""Property-based invariant tests over randomized worlds.

Hypothesis drives random parameterizations/seeds through short runs of
each implementation, asserting the model's structural invariants
(DESIGN.md §6) hold in every reachable state.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.model import SequentialSimCov
from repro.core.params import SimCovParams
from repro.core.state import EpiState

pytestmark = pytest.mark.slow

SLOW = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _random_params(draw):
    side = draw(st.integers(min_value=8, max_value=24))
    foi = draw(st.integers(min_value=0, max_value=4))
    return SimCovParams.fast_test(
        dim=(side, side), num_infections=min(foi, side * side),
        num_steps=40,
    ).with_(
        infectivity=draw(st.floats(min_value=0.0, max_value=1.0)),
        virion_production=draw(st.floats(min_value=0.0, max_value=2.0)),
        tcell_initial_delay=draw(st.integers(min_value=0, max_value=30)),
        tcell_generation_rate=draw(st.floats(min_value=0.0, max_value=50.0)),
    )


class TestSequentialInvariants:
    @given(data=st.data(), seed=st.integers(min_value=0, max_value=10_000))
    @SLOW
    def test_step_invariants(self, data, seed):
        params = _random_params(data.draw)
        sim = SequentialSimCov(params, seed=seed)
        blk = sim.block
        n_epi = params.num_voxels
        for _ in range(40):
            stats = sim.step()
            # Epithelial cells conserved across states.
            assert (
                stats.healthy + stats.incubating + stats.expressing
                + stats.apoptotic + stats.dead
            ) == n_epi
            # Occupancy and bounds.
            assert blk.tcell.max() <= 1
            assert blk.virions.min() >= 0.0 and blk.virions.max() <= 1.0
            assert blk.chemokine.min() >= 0.0 and blk.chemokine.max() <= 1.0
            # Live T cells have positive lifetimes; empty voxels have none.
            live = blk.tcell == 1
            assert (blk.tcell_tissue_time[live] >= 1).all()
            assert (blk.tcell_tissue_time[~live] == 0).all()
            # Dead cells never carry timers.
            dead = blk.epi_state == EpiState.DEAD
            assert (blk.epi_timer[dead] == 0).all()
            # Pool never negative.
            assert stats.tcells_vasculature >= 0.0

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @SLOW
    def test_monotone_cumulative_death(self, seed):
        p = SimCovParams.fast_test(dim=(16, 16), num_infections=2, num_steps=50)
        sim = SequentialSimCov(p, seed=seed)
        prev_dead = 0.0
        for _ in range(50):
            s = sim.step()
            assert s.dead >= prev_dead
            prev_dead = s.dead

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @SLOW
    def test_infection_cannot_appear_without_virions(self, seed):
        """Healthy tissue with no FOI stays pristine forever."""
        p = SimCovParams.fast_test(dim=(12, 12), num_infections=0, num_steps=30)
        sim = SequentialSimCov(p, seed=seed)
        sim.run()
        s = sim.series[-1]
        assert s.healthy == p.num_voxels
        assert s.virions_total == 0.0


class TestGpuInvariants:
    """The §3.2 memory-tiling protocol, as the single-block stepper's
    activity gate runs it."""

    @given(seed=st.integers(min_value=0, max_value=1000))
    @SLOW
    def test_tiling_never_changes_results(self, seed):
        """Any tile geometry yields the exact same state (§3.2)."""
        p = SimCovParams.fast_test(dim=(16, 16), num_infections=1,
                                   num_steps=20)
        a = SequentialSimCov(p, seed=seed, tile_shape=(2, 2))
        b = SequentialSimCov(p, seed=seed, tile_shape=(8, 8))
        a.run(20)
        b.run(20)
        for f in ("epi_state", "tcell", "virions"):
            np.testing.assert_array_equal(
                a.gather_field(f), b.gather_field(f), err_msg=f
            )
