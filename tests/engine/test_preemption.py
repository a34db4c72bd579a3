"""Step-boundary preemption on the shared StepEngine.

The serving layer's contract: ``request_preempt`` stops an in-flight
``run`` before the next step starts (never mid-phase), so a shadow
snapshot taken at the break point resumes **bitwise identically** to an
uninterrupted run — the same argument a retried run makes for crash
recovery.
"""

import numpy as np

from repro.core.model import SequentialSimCov
from repro.core.params import SimCovParams
from repro.io.checkpoint import CHECKPOINT_FIELDS, restore_state, snapshot_state

PARAMS = SimCovParams.fast_test(dim=(16, 16), num_infections=2, num_steps=40)


def series_matrix(series):
    return np.array(
        [[getattr(series[i], f) for f in (
            "healthy", "incubating", "expressing", "apoptotic", "dead",
            "tcells_tissue", "virions_total", "chemokine_total",
        )] for i in range(len(series))]
    )


class TestPreemptFlag:
    def test_stops_at_step_boundary(self):
        sim = SequentialSimCov(PARAMS, seed=3)
        sim.add_step_listener(
            lambda stats: sim.request_preempt() if stats.step == 9 else None
        )
        sim.run(40)
        assert sim.preempted
        assert sim.step_num == 10  # 10 full steps, none torn

    def test_flag_consumed_after_preempt(self):
        sim = SequentialSimCov(PARAMS, seed=3)
        sim.add_step_listener(
            lambda stats: sim.request_preempt() if stats.step == 4 else None
        )
        sim.run(40)
        assert sim.preempted
        # A fresh run is not poisoned by the old request.
        sim.engine.step_listeners.clear()
        sim.run(5)
        assert not sim.preempted
        assert sim.step_num == 10

    def test_stale_request_before_run_is_cleared(self):
        sim = SequentialSimCov(PARAMS, seed=3)
        sim.request_preempt()
        sim.run(3)
        assert sim.preempted
        assert sim.step_num == 0  # stopped before the first step
        sim.run(3)
        assert sim.step_num == 3

    def test_listener_sees_every_step(self):
        sim = SequentialSimCov(PARAMS, seed=3)
        seen = []
        sim.add_step_listener(lambda stats: seen.append(stats.step))
        sim.run(7)
        assert seen == list(range(7))


class TestPreemptResumeBitwise:
    def test_snapshot_resume_matches_uninterrupted(self):
        control = SequentialSimCov(PARAMS, seed=11)
        control.run(40)

        first = SequentialSimCov(PARAMS, seed=11)
        first.add_step_listener(
            lambda stats: first.request_preempt() if stats.step == 16 else None
        )
        first.run(40)
        assert first.preempted
        snap = snapshot_state(first)
        rows = series_matrix(first.series)

        second = SequentialSimCov(PARAMS, seed=11)
        restore_state(second, snap)
        second.run(40 - first.step_num)
        assert not second.preempted

        # The restored series carries the first segment's rows.
        resumed = series_matrix(second.series)
        np.testing.assert_array_equal(resumed[: len(rows)], rows)
        np.testing.assert_array_equal(resumed, series_matrix(control.series))
        for name in CHECKPOINT_FIELDS:
            np.testing.assert_array_equal(
                getattr(second.block, name)[second.block.interior],
                getattr(control.block, name)[control.block.interior],
                err_msg=name,
            )


class TestDistLookahead:
    """Inside ``run`` the dist backend launches step n+1 from step n's
    reduce, before step n's listeners run: a listener's request lands one
    boundary later, and the break is still quiescent."""

    def test_listener_request_lands_one_boundary_later(self):
        from repro.dist import DistSimCov

        control = SequentialSimCov(PARAMS, seed=11)
        control.run(40)
        with DistSimCov(PARAMS, nranks=2, seed=11) as first:
            first.add_step_listener(
                lambda stats: first.request_preempt()
                if stats.step == 16 else None
            )
            first.run(40)
            assert first.preempted
            assert first.step_num == len(first.series) == 18
            snap = snapshot_state(first)
            rows = series_matrix(first.series)
        second = SequentialSimCov(PARAMS, seed=11)
        restore_state(second, snap)
        second.run(40 - snap["step_num"])
        resumed = series_matrix(second.series)
        np.testing.assert_array_equal(resumed[: len(rows)], rows)
        np.testing.assert_array_equal(resumed, series_matrix(control.series))

    def test_stale_request_before_run_is_cleared(self):
        from repro.dist import DistSimCov

        with DistSimCov(PARAMS, nranks=2, seed=3) as sim:
            sim.request_preempt()
            sim.run(3)
            assert sim.preempted
            assert sim.step_num == 0
            sim.run(3)
            assert not sim.preempted
            assert sim.step_num == 3
