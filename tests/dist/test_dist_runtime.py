"""Unit tests for the distributed runtime's building blocks: shared-memory
segments, the pull-plan serialization of the halo routes, shared-memory-
backed block/intent construction, worker metrics, and the spawn start
method."""

import numpy as np
import pytest

from repro.core.kernels import IntentArrays
from repro.core.params import SimCovParams
from repro.core.state import EpiState, VoxelBlock
from repro.dist import DistSimCov, dist_schedule
from repro.dist.shm import (
    ShmSegment,
    block_layout,
    layout_nbytes,
    live_segment_names,
    make_segment_name,
)
from repro.engine.phases import PhaseKind, validate_schedule
from repro.grid.decomposition import Decomposition, DecompositionKind
from repro.grid.halo import HaloExchanger
from repro.grid.spec import GridSpec


class TestShmSegment:
    LAYOUT = [
        ("a", (4, 4), np.dtype(np.int8)),
        ("b", (3,), np.dtype(np.float64)),
        ("c", (2, 2), np.dtype(np.uint64)),
    ]

    def test_create_attach_roundtrip(self):
        name = make_segment_name("t_roundtrip")
        seg = ShmSegment.create(name, self.LAYOUT)
        try:
            seg.arrays["a"][1, 2] = 7
            seg.arrays["b"][:] = [1.5, 2.5, 3.5]
            other = ShmSegment.attach(name, self.LAYOUT)
            assert other.arrays["a"][1, 2] == 7
            np.testing.assert_array_equal(
                other.arrays["b"], [1.5, 2.5, 3.5]
            )
            # Writes propagate the other way too (it is the same memory).
            other.arrays["c"][0, 0] = 9
            assert seg.arrays["c"][0, 0] == 9
            other.close()
        finally:
            seg.close()
        assert name not in live_segment_names()

    def test_views_are_aligned_and_zeroed(self):
        name = make_segment_name("t_zeroed")
        seg = ShmSegment.create(name, self.LAYOUT)
        try:
            for arr in seg.arrays.values():
                assert arr.ctypes.data % 16 == 0
                assert not arr.any()
        finally:
            seg.close()

    def test_a_new_segment_reads_zero_where_an_unlinked_one_was_written(self):
        """``create`` does not zero-fill: a new POSIX object reads zero,
        also under the name and size of one just unlinked after every byte
        of it was written."""
        layout, name = block_layout((64, 48)), make_segment_name("t_reuse")
        for _ in range(3):
            seg = ShmSegment.create(name, layout)
            try:
                assert not any(seg.shm.buf)
                seg.shm.buf[:] = b"\xa5" * len(seg.shm.buf)
            finally:
                seg.close()

    def test_close_idempotent(self):
        seg = ShmSegment.create(make_segment_name("t_idem"), self.LAYOUT)
        seg.close()
        seg.close()

    def test_layout_nbytes_covers_alignment(self):
        assert layout_nbytes(self.LAYOUT) >= 16 + 32 + 32


class TestBlockFromArrays:
    def test_shared_block_matches_private_block(self):
        spec = GridSpec((8, 6))
        decomp = Decomposition.make(spec, 2, DecompositionKind.BLOCK)
        box = decomp.boxes[1]
        name = make_segment_name("t_block")
        shape = tuple(s + 2 for s in box.shape)
        seg = ShmSegment.create(name, block_layout(shape))
        try:
            shared = VoxelBlock.from_arrays(spec, box, seg.arrays, fresh=True)
            private = VoxelBlock(spec, box)
            np.testing.assert_array_equal(shared.gid, private.gid)
            np.testing.assert_array_equal(shared.in_domain, private.in_domain)
            np.testing.assert_array_equal(shared.epi_state, private.epi_state)
            assert (shared.epi_state[shared.in_domain] == EpiState.HEALTHY).all()
        finally:
            seg.close()

    def test_shape_mismatch_rejected(self):
        spec = GridSpec((8, 6))
        decomp = Decomposition.make(spec, 2, DecompositionKind.BLOCK)
        name = make_segment_name("t_badshape")
        seg = ShmSegment.create(name, block_layout((5, 5)))
        try:
            with pytest.raises(ValueError):
                VoxelBlock.from_arrays(spec, decomp.boxes[0], seg.arrays)
        finally:
            seg.close()

    def test_intents_from_arrays_sentinels(self):
        name = make_segment_name("t_intent")
        seg = ShmSegment.create(name, block_layout((4, 4)))
        try:
            arrays = {
                f: seg.arrays[f"intent_{f}"] for f in IntentArrays.FIELD_DTYPES
            }
            intents = IntentArrays.from_arrays(arrays, fresh=True)
            assert (intents.move_dir == -1).all()
            assert (intents.bind_dir == -1).all()
            assert not intents.bid_self.any()
        finally:
            seg.close()


class TestPullPlan:
    @pytest.mark.parametrize("plan_ranks", [2, 4])
    @pytest.mark.parametrize("dim", [(12, 10), (6, 6, 6)])
    def test_plan_covers_exchanger_routes(self, dim, plan_ranks):
        """The serialized pull plan is exactly the exchanger's route table
        restricted to one destination rank."""
        spec = GridSpec(dim)
        decomp = Decomposition.make(spec, plan_ranks, DecompositionKind.BLOCK)
        ex = HaloExchanger(decomp)
        for rank in range(plan_ranks):
            plan = ex.pull_plan(rank)
            assert plan.rank == rank
            expected = {
                (src, region.lo, region.hi)
                for src, dst, region in ex.replace_routes
                if dst == rank
            }
            got = {(r.src, r.region_lo, r.region_hi) for r in plan.replace}
            assert got == expected
            for route in plan.replace:
                src_sl = plan.src_slices(route)
                dst_sl = plan.dst_slices(route)
                assert src_sl == ex.region_slices(route.src, route.region)
                assert dst_sl == ex.region_slices(rank, route.region)

    def test_plan_pickles(self):
        import pickle

        spec = GridSpec((8, 8))
        decomp = Decomposition.make(spec, 4, DecompositionKind.BLOCK)
        plan = HaloExchanger(decomp).pull_plan(2)
        assert pickle.loads(pickle.dumps(plan)) == plan


class TestSchedule:
    def test_dist_schedule_is_valid(self):
        validate_schedule(dist_schedule())

    def test_no_tile_sweep(self):
        assert "tile_sweep" not in [p.name for p in dist_schedule()]


class TestDriverSurface:
    def test_worker_metrics_aggregate(self):
        params = SimCovParams.fast_test(
            dim=(16, 16), num_infections=1, num_steps=6
        )
        with DistSimCov(params, nranks=2, seed=1) as sim:
            sim.run(6)
            merged = sim.phase_metrics
            # Each of the 2 ranks ran (or consciously skipped) every
            # phase on every step.
            for phase in dist_schedule():
                total = merged.calls.get(phase.name, 0) + merged.skips.get(
                    phase.name, 0
                )
                assert total == 2 * 6, phase.name
            assert merged.total_seconds() > 0.0
            # Per-step records carry per-rank active counts.
            assert len(sim.step_work[0]["active_per_rank"]) == 2

    def test_only_exchanges_wait(self):
        """Every barrier wait sits in an exchange phase or a step barrier:
        a kernel phase is a shared single-block body, and the benchmark
        counts its seconds as busy time."""
        params = SimCovParams.fast_test(
            dim=(24, 24), num_infections=2, num_steps=8
        )
        with DistSimCov(params, nranks=4, seed=3) as sim:
            sim.run(8)
            waits = sim.backend.runtime.per_rank_wait_seconds()
        kernels = [p.name for p in dist_schedule() if p.kind is PhaseKind.KERNEL]
        assert kernels and all(waits[name] == [0.0] * 4 for name in kernels)
        assert sum(waits["tiebreak_exchange"]) > 0.0

    def test_step_by_step_matches_run(self):
        params = SimCovParams.fast_test(
            dim=(16, 16), num_infections=1, num_steps=5
        )
        from repro.core.model import SequentialSimCov

        ref = SequentialSimCov(params, seed=2)
        with DistSimCov(params, nranks=2, seed=2) as sim:
            for _ in range(5):
                assert sim.step() == ref.step()


@pytest.mark.slow
def test_spawn_start_method():
    """Worker specs are picklable: the runtime works under spawn, where
    children re-import everything instead of inheriting it."""
    params = SimCovParams.fast_test(dim=(12, 12), num_infections=1, num_steps=4)
    from repro.core.model import SequentialSimCov

    ref = SequentialSimCov(params, seed=11)
    ref.run(4)
    with DistSimCov(params, nranks=2, seed=11, start_method="spawn") as sim:
        sim.run(4)
        assert [s.virions_total for s in sim.series._stats] == [
            s.virions_total for s in ref.series._stats
        ]
