"""3D simulations (§2.2: 'a 2D or 3D grid of voxels').

The paper's evaluation is 2D (matching the patient-data fits of [25]),
but the model, the multi-process runtime and the counted work support 3D —
the §6 future-work path toward full-lung simulations.  These tests run
small 3D worlds end to end.
"""

import pytest

from repro.core.model import SequentialSimCov
from repro.core.params import SimCovParams
from repro.grid.decomposition import Decomposition
from repro.grid.spec import GridSpec
from repro.perf.work import gpu_step_work
from repro.perf.workload import WorkloadTrace

STEPS = 70


@pytest.fixture(scope="module")
def reference_3d():
    p = SimCovParams.fast_test(dim=(10, 10, 10), num_infections=2,
                               num_steps=STEPS)
    seq = SequentialSimCov(p, seed=17)
    seq.run()
    return p, seq


class TestSequential3D:
    def test_dynamics(self, reference_3d):
        _, seq = reference_3d
        assert seq.series[-1].infected + seq.series[-1].dead > 0
        total = (
            seq.series[-1].healthy + seq.series[-1].incubating
            + seq.series[-1].expressing + seq.series[-1].apoptotic
            + seq.series[-1].dead
        )
        assert total == 1000

    def test_concentrations_bounded(self, reference_3d):
        _, seq = reference_3d
        assert 0.0 <= seq.block.virions.min()
        assert seq.block.virions.max() <= 1.0


class TestParallel3D:
    """Bitwise 3D agreement of every rank count: tests/dist/test_dist_golden.py."""

    def test_3d_decomposition_has_26_neighbor_exchange(self, reference_3d):
        p, _ = reference_3d
        trace = WorkloadTrace.record(p.with_(num_steps=1), seed=17)
        decomp = Decomposition.blocks(GridSpec(p.dim), 8)
        ledger = gpu_step_work(trace, decomp)[0]["ledger"]
        # A 2x2x2 device grid: every device copies to its 7 neighbors, one
        # message per field — nine REPLACE fields (waves A, B, C) and the
        # two MAX-merged bids.
        assert ledger.copies_intra + ledger.copies_inter == 8 * 7 * (9 + 2)
