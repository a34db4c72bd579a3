"""Tests for the cost functions over counted work."""

import pytest

from repro.core.params import SimCovParams
from repro.grid.decomposition import Decomposition
from repro.grid.spec import GridSpec
from repro.perf.costs import (
    cpu_step_seconds,
    fits_gpu_memory,
    gpu_memory_per_device,
    gpu_step_seconds,
)
from repro.perf.ledger import GpuVariant, WorkLedger
from repro.perf.machine import PERLMUTTER, MachineModel
from repro.perf.work import cpu_step_work, gpu_step_work
from repro.perf.workload import WorkloadTrace


class TestCpuStepSeconds:
    def test_compute_is_max_rank(self):
        m = MachineModel()
        t = cpu_step_seconds(m, [100, 500, 200], {}, nranks=3)
        assert t == pytest.approx(500 * m.cpu_voxel_ns * 1e-9)

    def test_comm_terms_additive(self):
        m = MachineModel()
        base = cpu_step_seconds(m, [0], {}, nranks=4)
        withcomm = cpu_step_seconds(
            m, [0], {"rpcs": 4, "rpc_bytes": 4_000_000, "rpcs_internode": 2,
                     "reductions": 1}, nranks=4
        )
        assert withcomm > base
        assert withcomm - base == pytest.approx(
            1 * m.cpu_rpc_us * 1e-6
            + 0.5 * m.cpu_rpc_internode_us * 1e-6
            + 1_000_000 / (m.cpu_bw_GBps * 1e9)
            + 2 * m.cpu_allreduce_round_us * 1e-6
        )

    def test_empty_rank_list(self):
        assert cpu_step_seconds(MachineModel(), [], {}, 1) == 0.0


class TestGpuStepSeconds:
    def _ledger(self):
        return WorkLedger(
            launches={"update_agents": 1, "reduce_stats": 1},
            voxels={"update_agents": 1000, "reduce_stats": 8000},
            reduce_tree_elems=8000, atomic_ops=32, atomic_conflicts=31,
            copies_intra=1, copy_bytes_intra=1024,
            copies_inter=1, copy_bytes_inter=1024,
            device_reductions=1,
        )

    def test_breakdown_positive(self):
        cost = gpu_step_seconds(PERLMUTTER, self._ledger(), [600, 400], 2, True)
        assert cost.update_seconds > 0
        assert cost.reduce_seconds > 0
        assert cost.comm_seconds > 0
        assert cost.coord_seconds > 0
        assert cost.total_seconds == pytest.approx(
            cost.update_seconds + cost.reduce_seconds + cost.sweep_seconds
            + cost.comm_seconds + cost.coord_seconds
        )

    def test_imbalance_scales_update(self):
        led = self._ledger()
        balanced = gpu_step_seconds(PERLMUTTER, led, [500, 500], 2, True)
        skewed = gpu_step_seconds(PERLMUTTER, led, [1000, 0], 2, True)
        assert skewed.update_seconds > balanced.update_seconds

    def test_tiling_locality_discount(self):
        led = self._ledger()
        tiled = gpu_step_seconds(PERLMUTTER, led, [500, 500], 2, True)
        untiled = gpu_step_seconds(PERLMUTTER, led, [500, 500], 2, False)
        assert tiled.update_seconds < untiled.update_seconds
        assert tiled.reduce_seconds < untiled.reduce_seconds


class TestOptimizationOrdering:
    """The Fig 4 bar ordering, priced from one traced run's counted work."""

    @pytest.fixture(scope="class")
    def costs(self):
        # Sparse workload (one focus on 64^2): inactive tiles exist, so
        # memory tiling has something to skip (as in the paper's runs,
        # where most of the lung is quiescent).
        p = SimCovParams.fast_test(dim=(64, 64), num_infections=1, num_steps=30)
        trace = WorkloadTrace.record(p, seed=5)
        decomp = Decomposition.blocks(GridSpec(p.dim), 2)
        out = {}
        for variant in GpuVariant:
            tot_u = tot_r = 0.0
            for w in gpu_step_work(trace, decomp, variant, tile_shape=(8, 8)):
                c = gpu_step_seconds(
                    PERLMUTTER, w["ledger"], w["active_per_device"], 2,
                    variant.use_tiling,
                )
                tot_u += c.update_seconds + c.sweep_seconds
                tot_r += c.reduce_seconds
            out[variant] = (tot_u, tot_r)
        return out

    def test_reductions_dominate_unoptimized(self, costs):
        u, r = costs[GpuVariant.UNOPTIMIZED]
        assert r > u

    def test_each_optimization_helps(self, costs):
        unopt = sum(costs[GpuVariant.UNOPTIMIZED])
        fast = sum(costs[GpuVariant.FAST_REDUCTION])
        tile = sum(costs[GpuVariant.MEMORY_TILING])
        comb = sum(costs[GpuVariant.COMBINED])
        assert fast < unopt
        assert tile < unopt
        assert comb < min(fast, tile)

    def test_fast_reduction_cuts_reduce_time(self, costs):
        assert (
            costs[GpuVariant.FAST_REDUCTION][1]
            < costs[GpuVariant.UNOPTIMIZED][1] / 5
        )

    def test_tiling_cuts_update_time(self, costs):
        assert (
            costs[GpuVariant.MEMORY_TILING][0]
            < costs[GpuVariant.UNOPTIMIZED][0]
        )

    def test_tiling_also_helps_reductions(self, costs):
        """The paper's locality observation (§3.4)."""
        assert (
            costs[GpuVariant.MEMORY_TILING][1]
            < costs[GpuVariant.UNOPTIMIZED][1]
        )


class TestMemoryModel:
    def test_per_device_split(self):
        m = MachineModel()
        assert gpu_memory_per_device(m, 10**8, 4) == 25_000_000 * m.gpu_bytes_per_voxel

    def test_paper_base_fits_four_a100s(self):
        """§4.2: the 10,000^2 base problem fits 4 A100s."""
        assert fits_gpu_memory(PERLMUTTER, 10_000**2, 4)

    def test_too_big_rejected(self):
        assert not fits_gpu_memory(PERLMUTTER, 10_000_000**2, 4)


class TestCpuDirectCosts:
    def test_step_costs_decrease_with_ranks(self):
        p = SimCovParams.fast_test(dim=(32, 32), num_infections=8, num_steps=10)
        trace = WorkloadTrace.record(p, seed=1)
        totals = {}
        for nranks in (1, 4):
            decomp = Decomposition.blocks(GridSpec(p.dim), nranks)
            totals[nranks] = sum(
                cpu_step_seconds(
                    PERLMUTTER, w["active_per_rank"], w["comm"], nranks
                )
                for w in cpu_step_work(trace, decomp)
            )
        assert totals[4] < totals[1]
