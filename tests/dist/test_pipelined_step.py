"""The dist coordinator's one-step lookahead.

Inside ``run``, the coordinator releases step n+1 from step n's
``reduce`` — after the integer totals and every shared-memory read,
before it sums the float totals from its private copies.  These tests pin
what a caller sees at the boundaries: split runs, snapshots, preemption,
the barrier budget, failures in a launched-ahead step, and the lifetime of
a finished simulation.
"""

import gc
import time
import weakref

import numpy as np
import pytest

from repro.core.model import SequentialSimCov
from repro.dist import DistError, DistSimCov, FaultSpec, WorkerFailedError
from repro.io.checkpoint import CHECKPOINT_FIELDS, restore_state, snapshot_state

from tests.dist.test_control_barriers import FUSED_PHASE_WAITS, STEP_WAITS
from tests.golden.test_golden_traces import assert_exact, load_trace, make_params

CONFIG, GOLDEN = load_trace("trace_2d")
PARAMS = make_params(CONFIG)
SEED = CONFIG["seed"]
STEPS = CONFIG["steps"]
SPLIT = 13


def _dist(nranks, **kwargs):
    return DistSimCov(PARAMS, nranks=nranks, seed=SEED, **kwargs)


@pytest.fixture(scope="module")
def split_snapshot():
    ref = SequentialSimCov(PARAMS, seed=SEED)
    ref.run(SPLIT)
    return snapshot_state(ref)


def test_split_runs_are_one_run(nranks):
    """``run(a); run(b)`` is bitwise ``run(a + b)``; both are the
    sequential golden."""
    with _dist(nranks) as split:
        split.run(SPLIT)
        split.run(STEPS - SPLIT)
        assert_exact(split.series, GOLDEN, f"split/dist-{nranks}")
    with _dist(nranks) as whole:
        whole.run(STEPS)
        assert_exact(whole.series, GOLDEN, f"whole/dist-{nranks}")


def test_no_step_is_in_flight_when_run_returns(nranks, split_snapshot):
    with _dist(nranks) as sim:
        sim.run(SPLIT)
        assert sim.engine._launched is None
        snap = snapshot_state(sim)
    assert snap["step_num"] == split_snapshot["step_num"] == SPLIT
    assert snap["pool"] == split_snapshot["pool"]
    for name in CHECKPOINT_FIELDS:
        np.testing.assert_array_equal(
            snap["arrays"][name], split_snapshot["arrays"][name], err_msg=name
        )


def test_listener_preempt_stops_at_a_boundary_and_resumes_bitwise(nranks):
    """A listener's request lands while step n+1 is already launched, so
    ``run`` finishes that step and stops one boundary later."""
    with _dist(nranks) as first:
        first.add_step_listener(
            lambda stats: first.request_preempt() if stats.step == 9 else None
        )
        first.run(STEPS)
        assert first.preempted
        assert first.step_num == 11
        rows = [first.series[i] for i in range(len(first.series))]
        snap = snapshot_state(first)
    with _dist(nranks) as second:
        restore_state(second, snap)
        second.run(STEPS - snap["step_num"])
        assert not second.preempted
        rows += [second.series[i] for i in range(len(second.series))]
    assert_exact(rows, GOLDEN, f"preempt-resume/dist-{nranks}")


def test_lookahead_adds_no_barrier_epoch(nranks):
    """Two step-barrier epochs per step, whether stepped directly (never
    launched ahead) or by ``run`` (launched ahead)."""
    k = 4
    with _dist(nranks) as sim:
        ctrl = sim.backend.runtime.ctrl
        for _ in range(k):
            sim.step()
        assert ctrl.step_bar[nranks] == STEP_WAITS * k
        sim.run(k)
        assert ctrl.step_bar[nranks] == STEP_WAITS * 2 * k
        assert list(ctrl.phase_bar) == [FUSED_PHASE_WAITS * 2 * k] * nranks


@pytest.mark.parametrize("mode", ["die", "error"])
def test_failure_in_a_launched_step(nranks, mode):
    """Step 3 is launched inside step 2's reduce; its worker fails."""
    fault = FaultSpec(rank=nranks - 1, step=3, phase="intents", mode=mode)
    sim = _dist(nranks, barrier_timeout=30.0, fault=fault)
    try:
        with pytest.raises(WorkerFailedError):
            sim.run(10)
        assert sim.step_num == len(sim.series) == 3
        # The failed step's context died with it: a later step begins
        # afresh and meets the aborted runtime.
        assert sim.engine._launched is None
        with pytest.raises(DistError):
            sim.step()
        assert sim.engine._launched is None
    finally:
        sim.close()


def test_a_launched_step_survives_a_raising_listener(nranks):
    """The launched step is the one the next ``step`` finishes."""
    raised = []

    def once(stats):
        if stats.step == 2 and not raised:
            raised.append(stats.step)
            raise RuntimeError("listener failed")

    with _dist(nranks) as sim:
        sim.add_step_listener(once)
        with pytest.raises(RuntimeError, match="listener failed"):
            sim.run(STEPS)
        assert sim.engine._launched is not None
        sim.run(STEPS - sim.step_num)
        assert_exact(sim.series, GOLDEN, f"listener-raised/dist-{nranks}")


def test_close_with_a_launched_step_in_flight(nranks):
    """``close`` lets the in-flight step end, then shuts the workers down
    politely instead of waiting out the join and terminating them."""
    sim = _dist(nranks)

    def boom(stats):
        raise RuntimeError("listener failed")

    sim.add_step_listener(boom)
    with pytest.raises(RuntimeError):
        sim.run(5)
    assert sim.engine._launched is not None
    start = time.perf_counter()
    sim.close()
    assert time.perf_counter() - start < 4.0
    assert all(p.exitcode == 0 for p in sim.backend.runtime._procs)


def test_finished_sim_is_freed_by_refcount():
    """No reference cycle runs through a step context: a closed, dropped
    simulation that ran a pipelined ``run`` is freed without the cycle
    collector, so later forks do not inherit its private float copies."""
    gc.collect()
    gc.disable()
    try:
        sim = _dist(2)
        sim.run(5)
        sim.close()
        backend = weakref.ref(sim.backend)
        del sim
        assert backend() is None
    finally:
        gc.enable()


def test_the_coordinator_never_draws_the_attempt_schedule(nranks, monkeypatch):
    """Each rank draws the extravasation attempts from the published
    ``(step, pool)``; the coordinator's launch window holds only
    shared-memory reads, so its ``StepContext.attempts`` is never
    evaluated (a forked rank's context draws as usual)."""
    import os

    from repro.core.params import SimCovParams
    from repro.engine.engine import StepContext

    params = SimCovParams.fast_test(dim=(32, 32), num_infections=2, num_steps=90)
    ref = SequentialSimCov(params, seed=SEED)
    ref.run()
    assert sum(ref.series[i].extravasations for i in range(len(ref.series))) > 0

    coordinator = os.getpid()

    def refuse(ctx):
        if os.getpid() != coordinator:
            return ctx.draw_attempts()
        raise AssertionError(f"step {ctx.step}: the coordinator drew the attempts")

    monkeypatch.setattr(StepContext, "attempts", property(refuse))
    with DistSimCov(params, nranks=nranks, seed=SEED) as sim:
        sim.run()
        assert [sim.series[i] for i in range(len(ref.series))] == [
            ref.series[i] for i in range(len(ref.series))
        ]
