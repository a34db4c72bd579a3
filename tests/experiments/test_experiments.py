"""Tests for the experiment harness (fast configurations)."""

import numpy as np
import pytest

pytestmark = pytest.mark.slow

from repro.core.params import SimCovParams
from repro.experiments.configs import TABLE1, format_table1
from repro.experiments.correctness import format_table2, run_correctness
from repro.experiments.profiling import format_fig4, run_profiling
from repro.experiments.scaling import (
    format_scaling,
    run_foi_scaling,
    run_strong_scaling,
    run_weak_scaling,
    validate_direct,
)
from repro.perf.ledger import GpuVariant


class TestTable1:
    def test_paper_values(self):
        strong = TABLE1["strong"]
        assert strong.min_dim == (10_000, 10_000, 1)
        assert strong.units_sequence() == [
            (4, 128), (8, 256), (16, 512), (32, 1024), (64, 2048)
        ]
        weak = TABLE1["weak"]
        assert weak.foi_sequence() == [16, 32, 64, 128, 256]
        dims = weak.dims_sequence()
        assert dims[0] == (10_000, 10_000)
        assert dims[-1] == (40_000, 40_000)
        assert len(dims) == 5
        foi = TABLE1["foi"]
        assert foi.foi_sequence() == [64, 128, 256, 512, 1024]

    def test_format_renders_all_rows(self):
        text = format_table1()
        for name in ("Correctness", "Strong", "Weak", "FOI"):
            assert name in text
        assert "{64,2048}" in text


class TestCorrectness:
    @pytest.fixture(scope="class")
    def result(self):
        params = SimCovParams.fast_test(
            dim=(32, 32), num_infections=2, num_steps=180
        )
        return run_correctness(params, trials=3)

    def test_high_peak_agreement(self, result):
        """The §4.1 claim: statistics agree across implementations."""
        for row in result.table2.values():
            assert row["agree_pct"] > 80.0

    def test_bands_contain_mean(self, result):
        cm, cmin, cmax, gm, gmin, gmax = result.fig5_bands("virions_total")
        assert (cmin <= cm + 1e-9).all() and (cm <= cmax + 1e-9).all()
        assert (gmin <= gm + 1e-9).all() and (gm <= gmax + 1e-9).all()

    def test_curves_overlap(self, result):
        """CPU and GPU mean trajectories track each other (Fig 5)."""
        cm, *_ , gm, _, _ = (*result.fig5_bands("virions_total"),)
        # Correlation of the two mean curves is high.
        assert np.corrcoef(cm, gm)[0, 1] > 0.95

    def test_table_renders(self, result):
        text = format_table2(result)
        assert "Virus" in text and "paper" in text


class TestProfiling:
    @pytest.fixture(scope="class")
    def rows(self):
        params = SimCovParams.fast_test(
            dim=(64, 64), num_infections=1, num_steps=30
        )
        return run_profiling(params, num_devices=2)

    def test_four_bars(self, rows):
        assert [r.variant for r in rows] == list(GpuVariant)

    def test_fig4_shape(self, rows):
        by = {r.variant: r for r in rows}
        unopt = by[GpuVariant.UNOPTIMIZED]
        comb = by[GpuVariant.COMBINED]
        # Reductions dominate unoptimized; combined is fastest overall.
        assert unopt.reduce_seconds > unopt.update_seconds
        assert comb.total_seconds <= min(r.total_seconds for r in rows)
        assert by[GpuVariant.FAST_REDUCTION].reduce_seconds < unopt.reduce_seconds
        assert by[GpuVariant.MEMORY_TILING].update_seconds <= unopt.update_seconds

    def test_scaled_to_paper_magnitude(self, rows):
        comb = next(r for r in rows if r.variant is GpuVariant.COMBINED)
        assert comb.total_seconds == pytest.approx(70.0)

    def test_format(self, rows):
        assert "Unoptimized" in format_fig4(rows)


class TestScaling:
    #: Shared fast settings: fewer time samples (the run length must stay
    #: the paper's — activity growth is physical, radius = speed * steps).
    FAST = dict(samples=16)

    @pytest.fixture(scope="class")
    def strong(self):
        return run_strong_scaling(**self.FAST)

    def test_strong_speedup_declines(self, strong):
        s = [r.speedup for r in strong]
        assert s[0] > s[-1]
        assert s[0] > 2.0  # GPU clearly wins at 4 devices

    def test_strong_cpu_near_ideal(self, strong):
        assert strong[-1].cpu_seconds < strong[0].cpu_seconds / 8

    def test_strong_gpu_saturates(self, strong):
        assert strong[-1].gpu_seconds > strong[0].gpu_seconds / 6

    def test_weak_gpu_flat_after_rise(self):
        rows = run_weak_scaling(**self.FAST)
        g = [r.gpu_seconds for r in rows]
        assert g[-1] < 2.5 * g[0]  # nearly constant (Fig 7)
        s = [r.speedup for r in rows]
        assert all(v > 2.0 for v in s)  # the sustained ~4x advantage

    def test_foi_speedup_grows(self):
        rows = run_foi_scaling(**self.FAST)
        s = [r.speedup for r in rows]
        assert s[0] < s[-1]
        assert s[-1] > 1.8 * s[0]  # strong growth with FOI (Fig 8)
        cpu = [r.cpu_seconds for r in rows]
        gpu = [r.gpu_seconds for r in rows]
        # CPU grows much faster than GPU with FOI.
        assert cpu[-1] / cpu[0] > 2 * gpu[-1] / gpu[0]

    def test_format(self, strong):
        text = format_scaling(strong, "Strong")
        assert "{4,128}" in text and "Paper" in text


class TestValidateDirect:
    def test_projector_agrees_with_direct_execution(self):
        """Order-of-magnitude agreement between the supercell projector
        and the priced counted work of the same traced run."""
        out = validate_direct(dim=(32, 32), num_infections=2, num_steps=60)
        assert 0.2 < out["cpu_ratio"] < 5.0
        assert 0.2 < out["gpu_ratio"] < 5.0
