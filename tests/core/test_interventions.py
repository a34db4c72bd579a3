"""Tests for the antiviral/antibody intervention options ([25])."""

import numpy as np
import pytest

from repro.core.model import SequentialSimCov
from repro.core.params import SimCovParams
from repro.dist import DistSimCov


class TestParamHelpers:
    def test_no_intervention_by_default(self):
        p = SimCovParams.fast_test()
        assert p.virion_production_at(0) == p.virion_production
        assert p.virion_production_at(10**6) == p.virion_production
        assert p.virion_clearance_at(10**6) == p.virion_clearance

    def test_antiviral_kicks_in_at_start(self):
        p = SimCovParams.fast_test().with_(
            antiviral_start=100, antiviral_factor=0.25
        )
        assert p.virion_production_at(99) == p.virion_production
        assert p.virion_production_at(100) == pytest.approx(
            0.25 * p.virion_production
        )

    def test_antibody_clearance_clamped(self):
        p = SimCovParams.fast_test().with_(
            virion_clearance=0.5, antibody_start=0, antibody_factor=10.0
        )
        assert p.virion_clearance_at(0) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            SimCovParams.fast_test().with_(antiviral_factor=-1.0)
        with pytest.raises(ValueError):
            SimCovParams.fast_test().with_(antibody_factor=-0.5)


class TestInterventionDynamics:
    @pytest.fixture(scope="class")
    def baseline(self):
        p = SimCovParams.fast_test(dim=(48, 48), num_infections=3,
                                   num_steps=260)
        sim = SequentialSimCov(p, seed=6)
        sim.run()
        return p, sim

    def test_early_antiviral_blunts_peak(self, baseline):
        p, base = baseline
        treated = SequentialSimCov(
            p.with_(antiviral_start=40, antiviral_factor=0.05), seed=6
        )
        treated.run()
        assert (
            treated.series.peak("virions_total")[1]
            < 0.7 * base.series.peak("virions_total")[1]
        )
        assert treated.series[-1].dead < base.series[-1].dead

    def test_antibodies_accelerate_clearance(self, baseline):
        p, base = baseline
        treated = SequentialSimCov(
            p.with_(antibody_start=40, antibody_factor=20.0), seed=6
        )
        treated.run()
        assert (
            treated.series.field("virions_total")[-1]
            < base.series.field("virions_total")[-1]
        )

    def test_late_intervention_changes_nothing_before_start(self, baseline):
        p, base = baseline
        treated = SequentialSimCov(
            p.with_(antiviral_start=150, antiviral_factor=0.0), seed=6
        )
        for i in range(150):
            s = treated.step()
            assert s == base.series[i]
        # After onset, trajectories diverge.
        treated.run(60)
        assert (
            treated.series.field("virions_total")[-1]
            != base.series.field("virions_total")[209]
        )

    def test_parallel_impl_agrees_under_intervention(self, baseline):
        p, _ = baseline
        treated_p = p.with_(num_steps=80, antiviral_start=30,
                            antiviral_factor=0.1, antibody_start=50,
                            antibody_factor=5.0)
        seq = SequentialSimCov(treated_p, seed=6)
        seq.run()
        with DistSimCov(treated_p, nranks=4, seed=6) as dist:
            dist.run()
            np.testing.assert_array_equal(
                seq.block.virions[seq.block.interior], dist.gather_field("virions")
            )
            np.testing.assert_array_equal(
                seq.block.epi_state[seq.block.interior],
                dist.gather_field("epi_state"),
            )
