"""Tests for SIMCoV-GPU specifics: variants, tiling, ledger accounting.

SIMCoV-GPU computes the sequential trace bit for bit, so what is specific
to it is the work it counts: :func:`repro.perf.work.gpu_step_work` over one
single-block trace, per decomposition, variant and tile shape.
"""

import numpy as np
import pytest

from repro.core.kernels import IntentArrays
from repro.core.params import SimCovParams
from repro.core.state import VoxelBlock
from repro.grid.decomposition import Decomposition
from repro.grid.spec import GridSpec
from repro.perf.ledger import GpuVariant
from repro.perf.work import gpu_step_work
from repro.perf.workload import WorkloadTrace

DIM = (32, 32)


@pytest.fixture(scope="module")
def trace():
    params = SimCovParams.fast_test(dim=DIM, num_infections=4, num_steps=30)
    return WorkloadTrace.record(params, seed=0)


def counted(trace, num_devices, variant=GpuVariant.COMBINED, tile_shape=None,
            gpus_per_node=4):
    decomp = Decomposition.blocks(GridSpec(DIM), num_devices)
    return gpu_step_work(trace, decomp, variant, tile_shape, gpus_per_node)


def active_fraction(record):
    return sum(record["active_per_device"]) / np.prod(DIM)


def sweep_period(work):
    """Steps per tile sweep: the first step that launches one."""
    return 1 + next(
        t for t, w in enumerate(work) if w["ledger"].launches["tile_sweep"]
    )


class TestVariants:
    def test_flags(self):
        assert not GpuVariant.UNOPTIMIZED.use_tiling
        assert not GpuVariant.UNOPTIMIZED.use_tree_reduction
        assert GpuVariant.FAST_REDUCTION.use_tree_reduction
        assert not GpuVariant.FAST_REDUCTION.use_tiling
        assert GpuVariant.MEMORY_TILING.use_tiling
        assert GpuVariant.COMBINED.use_tiling
        assert GpuVariant.COMBINED.use_tree_reduction

    def test_labels(self):
        assert GpuVariant.COMBINED.label == "Combined"


class TestTiling:
    def test_unoptimized_processes_everything(self, trace):
        work = counted(trace, 4, GpuVariant.UNOPTIMIZED)
        assert all(active_fraction(w) == 1.0 for w in work)
        assert not any(w["ledger"].launches["tile_sweep"] for w in work)

    def test_tiling_skips_inactive(self, trace):
        work = counted(trace, 4, GpuVariant.COMBINED, tile_shape=(4, 4))
        # After the first sweep the active set collapses to the FOI tiles
        # (+ buffers + pinned boundary tiles).
        assert active_fraction(work[sweep_period(work)]) < 1.0

    def test_active_set_grows_with_infection(self, trace):
        work = counted(trace, 4, tile_shape=(4, 4))
        early = active_fraction(work[7])
        late = active_fraction(work[29])
        assert late >= early

    def test_sweep_period_default_is_tile_side(self, trace):
        work = counted(trace, 4, tile_shape=(4, 8))
        assert sweep_period(work) == 4
        swept = [t for t, w in enumerate(work) if w["ledger"].launches["tile_sweep"]]
        assert swept == list(range(3, 30, 4))

    def test_sweep_launches_counted(self, trace):
        work = counted(trace, 4, tile_shape=(4, 4))
        ledger = work[sweep_period(work) - 1]["ledger"]
        assert ledger.launches["tile_sweep"] == 4  # one per device
        assert ledger.voxels["tile_sweep"] == 32 * 32  # full owned scan


class TestReductionStrategies:
    def test_unoptimized_uses_many_atomics(self, trace):
        work = counted(trace, 2, GpuVariant.UNOPTIMIZED)[0]["ledger"]
        # Atomic reduce: one op per voxel per stat field (8 fields).
        assert work.atomic_ops >= 8 * 32 * 32

    def test_tree_reduction_uses_few_atomics(self, trace):
        atom = counted(trace, 2, GpuVariant.UNOPTIMIZED)[0]["ledger"]
        tree = counted(trace, 2, GpuVariant.FAST_REDUCTION)[0]["ledger"]
        assert tree.atomic_ops < atom.atomic_ops / 50
        assert tree.reduce_tree_elems > 0


class TestLedger:
    def test_halo_copies_counted(self, trace):
        work = counted(trace, 4, gpus_per_node=2)[0]["ledger"]
        assert work.copies_intra > 0
        assert work.copies_inter > 0

    def test_single_node_no_internode(self, trace):
        assert counted(trace, 4, gpus_per_node=4)[0]["ledger"].copies_inter == 0

    def test_launch_counts_stable_without_tiling(self, trace):
        work = counted(trace, 2, GpuVariant.UNOPTIMIZED)
        launches = [w["ledger"].total_launches() for w in work[:3]]
        assert launches[0] == launches[1] == launches[2]

    def test_tiling_reduces_update_voxels(self, trace):
        full = counted(trace, 2, GpuVariant.UNOPTIMIZED)
        tiled = counted(trace, 2, GpuVariant.COMBINED, tile_shape=(4, 4))
        n = sweep_period(tiled) + 2
        fv = full[n - 1]["ledger"].voxels["update_agents"]
        tv = tiled[n - 1]["ledger"].voxels["update_agents"]
        assert tv < fv

    def test_device_reductions_counted(self, trace):
        # One cross-device reduce per reduced stat + extr/binds/moves.
        assert counted(trace, 2)[0]["ledger"].device_reductions == 8 + 3


class TestDeviceMemory:
    def test_bytes_per_voxel_matches_machine_model(self):
        """The perf model's gpu_bytes_per_voxel estimate is grounded in the
        per-voxel footprint of the buffers one device holds: the padded
        state and id arrays, the intent arrays and two diffusion scratch
        fields."""
        from repro.perf.machine import PERLMUTTER

        spec = GridSpec(DIM)
        box = Decomposition.blocks(spec, 4).boxes[0]
        block = VoxelBlock(spec, box)
        intents = IntentArrays(block.virions.shape)
        state = (
            "epi_state", "virions", "chemokine", "tcell", "tcell_tissue_time",
            "tcell_bound_time", "epi_timer", "gid",
        )
        buffers = [getattr(block, n) for n in state]
        buffers += [getattr(intents, n)
                    for n in IntentArrays.REPLACE_FIELDS + IntentArrays.MAX_FIELDS]
        buffers += [block.virions, block.chemokine]  # the scratch copies
        measured = sum(b.nbytes for b in buffers) / box.size
        assert 0.5 < measured / PERLMUTTER.gpu_bytes_per_voxel < 2.0
