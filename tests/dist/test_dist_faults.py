"""Robustness of the distributed runtime: injected faults must surface as
diagnostic errors naming the rank/phase/step — never as a silent hang —
and every failure path must release its processes and shared memory
(the repo-wide leak fixture asserts the latter after each test)."""

import pytest

from repro.core.params import SimCovParams
from repro.dist import (
    BarrierTimeoutError,
    DistSimCov,
    FaultSpec,
    WorkerFailedError,
)


def _params():
    return SimCovParams.fast_test(dim=(16, 16), num_infections=1, num_steps=10)


def test_stalled_worker_times_out_with_diagnostic():
    """A rank that stops making progress trips the coordinator's barrier
    timeout, and the error names the stalled rank, its phase, and step."""
    fault = FaultSpec(rank=1, step=3, phase="intents", mode="stall")
    with pytest.raises(BarrierTimeoutError) as excinfo:
        with DistSimCov(
            _params(), nranks=2, seed=3, barrier_timeout=1.5, fault=fault
        ) as sim:
            sim.run(10)
    message = str(excinfo.value)
    assert "rank 1" in message
    assert "intents" in message
    assert "step 3" in message


def test_killed_worker_raises_worker_failed():
    """A worker that dies hard (os._exit, no teardown) is detected by the
    coordinator's liveness poll, not by waiting out the timeout."""
    fault = FaultSpec(rank=0, step=2, phase="epithelial", mode="die")
    with pytest.raises(WorkerFailedError) as excinfo:
        with DistSimCov(
            _params(), nranks=2, seed=3, barrier_timeout=30.0, fault=fault
        ) as sim:
            sim.run(10)
    message = str(excinfo.value)
    assert "rank 0" in message
    assert "exited with code 13" in message


def test_close_is_idempotent_and_reusable_after_failure():
    fault = FaultSpec(rank=0, step=1, phase="diffuse", mode="die")
    sim = DistSimCov(
        _params(), nranks=2, seed=5, barrier_timeout=30.0, fault=fault
    )
    with pytest.raises(WorkerFailedError):
        sim.run(10)
    sim.close()
    sim.close()  # second close is a no-op
    # The machine is still usable: a fresh runtime starts cleanly.
    with DistSimCov(_params(), nranks=2, seed=5) as sim2:
        sim2.run(2)


def test_fault_spec_validates_mode():
    with pytest.raises(ValueError, match="fault mode"):
        FaultSpec(rank=0, step=0, phase="intents", mode="explode")


def test_fault_spec_validates_repeat_and_delay():
    with pytest.raises(ValueError, match="repeat"):
        FaultSpec(rank=0, step=0, phase="intents", mode="die", repeat=0)
    with pytest.raises(ValueError, match="delay"):
        FaultSpec(rank=0, step=0, phase="intents", mode="slow", delay=-1.0)


def test_erroring_worker_raises_worker_failed():
    """An exception inside a worker's phase loop flips the abort flag and
    surfaces as WorkerFailedError naming the rank — not as a timeout."""
    fault = FaultSpec(rank=1, step=2, phase="diffuse", mode="error")
    with pytest.raises(WorkerFailedError) as excinfo:
        with DistSimCov(
            _params(), nranks=2, seed=3, barrier_timeout=30.0, fault=fault
        ) as sim:
            sim.run(10)
    assert "rank 1" in str(excinfo.value)


def test_slow_rank_degrades_latency_not_correctness():
    """A slow rank delays barriers but the run completes bitwise clean
    (the 'benign fault' class a retried run rides through)."""
    fault = FaultSpec(rank=1, step=4, phase="intents", mode="slow",
                      delay=0.01)
    with DistSimCov(_params(), nranks=2, seed=3, fault=fault) as sim:
        sim.run(8)
        slowed = [sim.series[i] for i in range(8)]
    with DistSimCov(_params(), nranks=2, seed=3) as sim:
        sim.run(8)
        clean = [sim.series[i] for i in range(8)]
    assert slowed == clean


def test_frozen_heartbeat_is_visible_but_not_fatal():
    """freeze_heartbeat stops a rank's liveness beacon; progress
    continues (heartbeats are diagnostics, the barriers are the
    synchronization), and the stale age shows up in the gauge."""
    import time

    fault = FaultSpec(rank=1, step=2, phase="intents",
                      mode="freeze_heartbeat")
    with DistSimCov(_params(), nranks=2, seed=3, fault=fault) as sim:
        sim.run(8)
        ages = sim.backend.runtime.heartbeat_ages(time.monotonic())
        assert ages[1] > ages[0]


def test_clean_shutdown_mid_run_releases_everything():
    """Closing between steps (the Ctrl-C path) must not hang or leak."""
    sim = DistSimCov(_params(), nranks=2, seed=7)
    sim.run(3)
    sim.close()
    assert all(p.exitcode == 0 for p in sim.backend.runtime._procs)
