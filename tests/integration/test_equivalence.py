"""Cross-implementation equivalence: the reproduction's strongest result.

The paper (§4.1) demonstrates *statistical* agreement between SIMCoV-CPU
and SIMCoV-GPU.  Because this reproduction keys all randomness by global
voxel id, it shows the stronger property: every decomposition computes
the single-block trace bit for bit.  The golden traces pin that for the
multi-process runtime at every rank count (tests/dist/test_dist_golden.py);
here both drivers run through the one phase-pipeline engine.
"""

import contextlib

import numpy as np
import pytest

pytestmark = pytest.mark.slow

from repro.core.model import SequentialSimCov
from repro.core.params import SimCovParams
from repro.dist import DistSimCov

FIELDS = (
    "epi_state",
    "virions",
    "chemokine",
    "tcell",
    "tcell_tissue_time",
    "tcell_bound_time",
    "epi_timer",
)


def assert_fields_match(seq, sim, label):
    interior = seq.block.interior
    for name in FIELDS:
        ref = getattr(seq.block, name)[interior]
        got = sim.gather_field(name)
        assert np.array_equal(ref, got), (
            f"{label}: field {name} differs at "
            f"{np.argwhere(ref != got)[:3].tolist()}"
        )


class TestEngineUnification:
    """Both drivers execute through the shared phase-pipeline engine
    (repro.engine) and stay bitwise identical when driven through it."""

    ENGINE_STEPS = 40  # > tcell_initial_delay at fast_test compression

    @contextlib.contextmanager
    def _drivers_2d(self):
        p = SimCovParams.fast_test(dim=(16, 16), num_infections=3,
                                   num_steps=self.ENGINE_STEPS)
        with DistSimCov(p, nranks=4, seed=5) as dist:
            yield p, [SequentialSimCov(p, seed=5), dist]

    def test_all_drivers_share_the_step_engine(self):
        from repro.engine import ExecutionBackend, StepEngine

        with self._drivers_2d() as (_, sims):
            for sim in sims:
                assert isinstance(sim.engine, StepEngine)
                assert isinstance(sim.backend, ExecutionBackend)
                assert sim.engine.backend is sim.backend
                # The engine runs the backend's own schedule.
                assert sim.schedule == sim.backend.schedule()
                # Stepping goes through the engine: state advances in lockstep.
                sim.step()
                assert sim.step_num == sim.engine.step_num == 1

    def test_engine_equivalence_2d(self):
        with self._drivers_2d() as (_, (seq, dist)):
            for sim in (seq, dist):
                sim.engine.run(self.ENGINE_STEPS)
            assert dist.series.to_rows() == seq.series.to_rows()
            assert_fields_match(seq, dist, "engine-dist")

    def test_engine_equivalence_3d(self):
        steps = 30
        p = SimCovParams.fast_test(dim=(8, 8, 8), num_infections=2,
                                   num_steps=steps)
        seq = SequentialSimCov(p, seed=13)
        seq.engine.run(steps)
        with DistSimCov(p, nranks=4, seed=13) as dist:
            dist.engine.run(steps)
            assert dist.series.to_rows() == seq.series.to_rows()
            assert_fields_match(seq, dist, "3d-dist")

    def test_every_phase_reports_time_and_counts(self):
        with self._drivers_2d() as (_, sims):
            for sim in sims:
                sim.run(10)
                summary = sim.phase_metrics.summary()
                # The runtime's metrics merge every rank's.
                reached = 10 * getattr(sim, "nranks", 1)
                for ph in sim.schedule:
                    row = summary[ph.name]
                    assert row["calls"] + row["skips"] == reached, ph.name
                    assert row["seconds"] >= 0.0
                # A phase's time lives in that one table, not in step_work.
                for rec in sim.step_work:
                    assert "phase_seconds" not in rec
