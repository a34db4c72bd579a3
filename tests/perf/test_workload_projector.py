"""Tests for workload traces, the disk activity model, and the projector."""

import numpy as np
import pytest

from repro.core.params import SimCovParams
from repro.perf.activity import DiskActivityModel
from repro.perf.machine import PAPER_SCALE_GROWTH_SPEED, PERLMUTTER
from repro.perf.projector import (
    _Apportioner,
    project_cpu_runtime,
    project_gpu_runtime,
)
from repro.perf.workload import WorkloadTrace
from repro.grid.decomposition import Decomposition
from repro.grid.spec import GridSpec
from repro.perf.ledger import GpuVariant


@pytest.fixture(scope="module")
def trace():
    p = SimCovParams.fast_test(dim=(64, 64), num_infections=4, num_steps=160)
    return WorkloadTrace.record(p, seed=3, supergrid=16, stride=4)


class TestWorkloadTrace:
    def test_shapes(self, trace):
        assert trace.counts.shape == (40, 16, 16)
        assert trace.num_samples == 40
        assert trace.sample_weight(0) == 4
        assert trace.sample_weight(trace.num_samples - 1) == 4

    def test_counts_bounded_by_supercell(self, trace):
        cell = (64 / 16) ** 2
        assert trace.counts.max() <= cell
        assert trace.counts.min() >= 0

    def test_activity_grows(self, trace):
        act = trace.active_voxels()
        assert act[-1] > act[0]
        assert trace.active_fraction()[-1] <= 1.0

    def test_growth_speed_positive(self, trace):
        v = trace.growth_speed()
        assert 0.01 < v < 5.0

    def test_records_3d(self):
        p = SimCovParams.fast_test(dim=(8, 8, 8), num_infections=1, num_steps=6)
        trace = WorkloadTrace.record(p, supergrid=2, stride=3)
        assert trace.active.shape == (7, 8, 8, 8)
        assert trace.wave_a.shape == trace.wave_c.shape == (6, 8, 8, 8)
        assert trace.counts.shape == (2, 2, 2, 2)
        assert trace.counts[1].sum() == trace.active[4].sum()


class TestDiskActivityModel:
    def test_counts_grow_and_saturate(self):
        p = SimCovParams.default_covid(dim=(1000, 1000), num_infections=8,
                                       num_steps=20_000)
        m = DiskActivityModel(p, seed=1, speed=0.1, supergrid=32, samples=32)
        frac = m.active_fraction()
        assert frac[0] < 0.01
        assert frac[-1] > 0.9  # radius 2000 >> domain: saturated
        assert (np.diff(frac) >= -1e-9).all()

    def test_more_foi_more_activity(self):
        base = dict(dim=(4000, 4000), num_steps=10_000)
        lo = DiskActivityModel(
            SimCovParams.default_covid(num_infections=4, **base), speed=0.02
        )
        hi = DiskActivityModel(
            SimCovParams.default_covid(num_infections=64, **base), speed=0.02
        )
        assert hi.mean_active_fraction() > 2 * lo.mean_active_fraction()

    def test_matches_real_trace_shape(self, trace):
        """Calibrated disk model tracks the real activity curve at small
        scale — the validation that justifies paper-scale synthesis."""
        p = SimCovParams.fast_test(dim=(64, 64), num_infections=4, num_steps=160)
        model = DiskActivityModel(
            p, seed=3, speed=trace.growth_speed(), supergrid=16, samples=40
        )
        real = trace.active_fraction()
        synth = np.interp(
            trace.sample_steps, model.sample_steps, model.active_fraction()
        )
        # Same order of magnitude throughout the growth phase.
        mid = slice(len(real) // 4, None)
        ratio = (synth[mid] + 0.01) / (real[mid] + 0.01)
        assert ratio.min() > 0.3 and ratio.max() < 3.0

    def test_zero_foi(self):
        p = SimCovParams.default_covid(dim=(500, 500), num_infections=0)
        m = DiskActivityModel(p, speed=0.1)
        assert m.mean_active_fraction() == 0.0


class TestApportioner:
    def test_conserves_counts(self):
        spec = GridSpec((100, 80))
        decomp = Decomposition.blocks(spec, 6)
        app = _Apportioner((100, 80), 16, decomp)
        rng = np.random.default_rng(0)
        counts = rng.random((16, 16)) * 10
        per_rank = app.per_rank(counts)
        assert per_rank.shape == decomp.proc_grid
        assert per_rank.sum() == pytest.approx(counts.sum())

    def test_localized_activity_lands_on_owner(self):
        spec = GridSpec((64, 64))
        decomp = Decomposition.blocks(spec, 4)
        app = _Apportioner((64, 64), 8, decomp)
        counts = np.zeros((8, 8))
        counts[1, 1] = 5.0  # supercell centered near (12, 12): rank (0,0)
        per_rank = app.per_rank(counts)
        assert per_rank[0, 0] == pytest.approx(5.0)
        assert per_rank[1, 1] == 0.0


class TestProjector:
    @pytest.fixture(scope="class")
    def model(self):
        p = SimCovParams.default_covid()
        return DiskActivityModel(
            p, seed=1, speed=PAPER_SCALE_GROWTH_SPEED, supergrid=32, samples=24
        )

    def test_cpu_scales_down_with_ranks(self, model):
        t128 = project_cpu_runtime(PERLMUTTER, model, 128).total_seconds
        t2048 = project_cpu_runtime(PERLMUTTER, model, 2048).total_seconds
        assert t2048 < t128 / 8  # near-ideal CPU scaling (Fig 6)

    def test_gpu_saturates(self, model):
        """Fig 6: GPU deviates from ideal past ~16 devices."""
        t4 = project_gpu_runtime(PERLMUTTER, model, 4).total_seconds
        t16 = project_gpu_runtime(PERLMUTTER, model, 16).total_seconds
        t64 = project_gpu_runtime(PERLMUTTER, model, 64).total_seconds
        assert t16 < t4
        assert t64 > t16 / 4  # far from ideal 4x

    def test_base_speedup_near_paper(self, model):
        c = project_cpu_runtime(PERLMUTTER, model, 128).total_seconds
        g = project_gpu_runtime(PERLMUTTER, model, 4).total_seconds
        assert 3.0 < c / g < 7.0  # paper: 4.98

    def test_unoptimized_slower_than_combined(self, model):
        comb = project_gpu_runtime(
            PERLMUTTER, model, 4, variant=GpuVariant.COMBINED
        ).total_seconds
        unopt = project_gpu_runtime(
            PERLMUTTER, model, 4, variant=GpuVariant.UNOPTIMIZED
        ).total_seconds
        assert unopt > comb

    def test_breakdown_sums(self, model):
        r = project_gpu_runtime(PERLMUTTER, model, 8)
        assert r.total_seconds == pytest.approx(
            r.compute_seconds + r.reduce_seconds + r.comm_seconds
            + r.coord_seconds + r.sweep_seconds + r.launch_seconds
        )

    def test_trace_provider_works_too(self, trace):
        """The projector accepts recorded traces (same-scale studies)."""
        c = project_cpu_runtime(PERLMUTTER, trace, 4).total_seconds
        g = project_gpu_runtime(PERLMUTTER, trace, 4).total_seconds
        assert c > 0 and g > 0
