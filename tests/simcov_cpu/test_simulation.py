"""Tests for SIMCoV-CPU specifics: active regions, RPC accounting.

The per-rank active lists are the refresh-mode :class:`ActivityGate`; the
RPC and active-list accounting is counted work over one single-block trace
(:func:`repro.perf.work.cpu_step_work`).
"""

from repro.core.params import SimCovParams
from repro.core.state import EpiState, VoxelBlock
from repro.engine.activity import ActivityGate
from repro.engine.driver import build_driver
from repro.grid.box import Box
from repro.grid.decomposition import Decomposition, DecompositionKind
from repro.grid.spec import GridSpec
from repro.perf.work import cpu_step_work
from repro.perf.workload import WorkloadTrace


def counted(params, nranks, seed, kind=DecompositionKind.BLOCK, **kwargs):
    trace = WorkloadTrace.record(params, seed=seed)
    decomp = Decomposition.make(GridSpec(params.dim), nranks, kind)
    return cpu_step_work(trace, decomp, **kwargs)


def total(work, key):
    return sum(w["comm"][key] for w in work)


class TestActiveRegion:
    def test_initially_all_active(self):
        spec = GridSpec((8, 8))
        blk = VoxelBlock(spec, spec.domain)
        ar = ActivityGate(blk, 1e-6, sweep_period=1)
        assert ar.count == 64

    def test_refresh_shrinks_to_activity(self):
        spec = GridSpec((16, 16))
        blk = VoxelBlock(spec, spec.domain)
        blk.virions[8, 8] = 0.5  # padded coords; owned (7,7)
        ar = ActivityGate(blk, 1e-6, sweep_period=1)
        ar.sweep()
        assert ar.count == 9  # the voxel + Moore dilation
        region = ar.region()
        assert region == (slice(7, 10), slice(7, 10))

    def test_idle_region_none(self):
        spec = GridSpec((8, 8))
        blk = VoxelBlock(spec, spec.domain)
        ar = ActivityGate(blk, 1e-6, sweep_period=1)
        ar.sweep()
        assert ar.count == 0
        assert ar.region() is None

    def test_ghost_activity_activates_boundary(self):
        """Activity in a ghost voxel (from a neighbor rank) must activate
        the adjacent owned boundary voxels."""
        spec = GridSpec((16, 8))
        blk = VoxelBlock(spec, Box((0, 0), (8, 8)))  # ghosts at x=8
        blk.virions[9, 4] = 0.3  # ghost voxel (global (8,3))
        ar = ActivityGate(blk, 1e-6, sweep_period=1)
        ar.sweep()
        assert ar.count == 3  # owned (7, 2..4)
        assert ar.mask[7, 2] and ar.mask[7, 3] and ar.mask[7, 4]

    def test_bbox_covers_disjoint_activity(self):
        spec = GridSpec((16, 16))
        blk = VoxelBlock(spec, spec.domain)
        blk.virions[2, 2] = 0.5
        blk.virions[14, 14] = 0.5
        ar = ActivityGate(blk, 1e-6, sweep_period=1)
        ar.sweep()
        region = ar.region()
        assert region == (slice(1, 16), slice(1, 16))
        assert ar.count == 18  # two dilated 3x3 patches


class TestCpuSimulation:
    def test_work_records(self):
        p = SimCovParams.fast_test(dim=(16, 16), num_infections=1, num_steps=5)
        work = counted(p, nranks=4, seed=0)
        assert len(work) == 5
        rec = work[0]
        assert len(rec["active_per_rank"]) == 4
        assert rec["comm"]["rpcs"] > 0
        assert rec["comm"]["reductions"] == 1

    def test_rpc_bytes_scale_with_boundary(self):
        """Linear decomposition moves more boundary bytes than block."""
        p = SimCovParams.fast_test(dim=(24, 24), num_infections=2, num_steps=8)
        blk = counted(p, nranks=4, seed=1)
        lin = counted(p, nranks=4, seed=1, kind=DecompositionKind.LINEAR)
        assert total(lin, "rpc_bytes") > total(blk, "rpc_bytes")

    def test_internode_rpcs_accounted(self):
        p = SimCovParams.fast_test(dim=(16, 16), num_infections=1, num_steps=3)
        work = counted(p, nranks=4, seed=0, ranks_per_node=2)
        assert total(work, "rpcs_internode") > 0
        assert total(work, "rpcs_internode") < total(work, "rpcs")

    def test_active_counts_grow_with_infection(self):
        p = SimCovParams.fast_test(dim=(32, 32), num_infections=4, num_steps=60)
        work = counted(p, nranks=4, seed=2)
        early = sum(work[1]["active_per_rank"])
        late = sum(work[-1]["active_per_rank"])
        assert late > early

    def test_single_rank_degenerate(self):
        p = SimCovParams.fast_test(dim=(12, 12), num_infections=1, num_steps=20)
        work = counted(p, nranks=1, seed=0)
        assert total(work, "rpcs") == 0  # no neighbors
        assert len(work) == 20

    def test_gather_helpers(self):
        """The single-block stepper gathers the whole domain."""
        p = SimCovParams.fast_test(dim=(12, 12), num_infections=2, num_steps=1)
        cpu = build_driver("sequential", p, seed=0)
        epi = cpu.gather_field("epi_state")
        assert epi.shape == (12, 12)
        assert (epi == EpiState.HEALTHY).all()
        assert cpu.gather_field("virions").sum() == 2.0
