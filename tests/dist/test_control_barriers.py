"""Unit + regression tests for the fused-epoch barrier protocol.

The :class:`ShmBarrier` is a versioned arrival vector: slots only grow,
so any number of barriers can share one vector per epoch with no reset
round — the property barrier fusion leans on.  These tests drive the
protocol in process (no worker spawn) and then pin the per-step barrier
budget on a real run: the 2 step waits and nothing else, down from the
seed protocol's 6 + 2 (each rank computes its ghost band itself, so no
barrier sits inside a step).
"""

import numpy as np
import pytest

from repro.dist import DistSimCov
from repro.dist.control import (
    BarrierTimeoutError,
    ControlBlock,
    DistAborted,
    ShmBarrier,
    control_layout,
)
from repro.dist.shm import ShmSegment, make_segment_name
from repro.dist.worker import dist_schedule

PHASES = tuple(p.name for p in dist_schedule())

#: The per-step barrier budget: step start + step end.
STEP_WAITS = 2
SEED_TOTAL_WAITS = 8


@pytest.fixture
def ctrl():
    seg = ShmSegment.create(
        make_segment_name("barrier_test"), control_layout(2, len(PHASES))
    )
    try:
        yield ControlBlock(seg, 2, PHASES)
    finally:
        seg.close()


def test_multi_phase_epochs_share_one_vector(ctrl):
    """Consecutive barriers reuse the vector with no reset phase: each
    wait bumps this party's epoch, and a peer pre-advanced through many
    phases satisfies every older epoch."""
    epochs = 2 * STEP_WAITS
    slots = np.zeros(2, dtype=np.int64)
    bar = ShmBarrier(slots, 0, ctrl)
    slots[1] = epochs  # the peer already ran two whole steps
    for expected in range(1, epochs + 1):
        bar.wait(timeout=1.0)
        assert bar.epoch == expected
        assert slots[0] == expected
    # Our own slot never decreased — there is no reset to race with.
    assert slots[0] == epochs


def test_out_of_order_arrival_is_monotonic(ctrl):
    """A fast party at epoch e+k trivially satisfies waiters at e, and a
    late waiter is satisfied by slots that have already moved on."""
    slots = np.zeros(2, dtype=np.int64)
    fast = ShmBarrier(slots, 0, ctrl)
    late = ShmBarrier(slots, 1, ctrl)
    slots[1] = 1          # peer arrived at epoch 1 first (out of order)
    fast.wait(timeout=1.0)
    # Fast party races three epochs ahead of the shared vector's party 1.
    slots[1] = 4
    for _ in range(3):
        fast.wait(timeout=1.0)
    assert slots[0] == 4
    # The late party's single overdue wait (epoch 2) passes immediately
    # against the grown slots — epochs never need to match exactly.
    late.epoch = 1
    late.wait(timeout=1.0)
    assert slots[1] == 2


def test_timeout_attribution_names_rank_phase_step(ctrl):
    """A timeout dump must single out the stalled rank with the phase
    name and step it last reported."""
    slots = np.zeros(2, dtype=np.int64)
    bar = ShmBarrier(slots, 0, ctrl, label="step barrier")
    ctrl.set_status(0, step=7, phase=PHASES.index("reduce"))
    ctrl.set_status(1, step=7, phase=PHASES.index("resolve"))
    ctrl.heartbeat[1] = 0.0  # rank 1 has not heartbeat since the epoch
    with pytest.raises(BarrierTimeoutError) as err:
        bar.wait(timeout=0.05)
    msg = str(err.value)
    assert "step barrier" in msg
    assert "missing rank 1" in msg
    assert "rank 0" not in msg  # the healthy arrival is not blamed
    assert "'resolve'" in msg
    assert "step 7" in msg


def test_timeout_attribution_names_coordinator(ctrl):
    """Party ``nranks`` is the coordinator; its absence is named as such
    rather than dressed up as a worker rank."""
    slots = np.zeros(3, dtype=np.int64)  # 2 workers + coordinator
    bar = ShmBarrier(slots, 0, ctrl, label="step barrier")
    slots[1] = 1
    with pytest.raises(BarrierTimeoutError) as err:
        bar.wait(timeout=0.05)
    assert "missing party 2 (coordinator)" in str(err.value)


def test_abort_unblocks_waiter(ctrl):
    slots = np.zeros(2, dtype=np.int64)
    bar = ShmBarrier(slots, 0, ctrl)
    ctrl.abort()
    with pytest.raises(DistAborted):
        bar.wait(timeout=5.0)


def test_per_step_barrier_count_is_fused():
    """Regression gate for barrier fusion: a real run crosses exactly the
    2 step-barrier epochs per step, and the control segment has no other
    barrier vector.  The seed protocol spent 6 + 2; the open-wave exit
    and every mid-step wave collapsed into the step barriers once each
    rank computes its ghost band itself."""
    from repro.core.params import SimCovParams

    steps = 6
    params = SimCovParams.fast_test(dim=(24, 24), num_infections=1)
    with DistSimCov(params, nranks=2, seed=9) as sim:
        sim.run(steps)
        ctrl = sim.backend.runtime.ctrl
        step_slots = ctrl.step_bar.copy()
        vectors = [k for k in ctrl.segment.arrays if k.endswith("_bar")]
    assert vectors == ["step_bar"]
    # Coordinator slot: exactly 2 epochs per step.  Worker slots may
    # already show the *next* step's arrival (they park at step-start).
    assert step_slots[2] == STEP_WAITS * steps
    for worker_slot in step_slots[:2]:
        assert STEP_WAITS * steps <= worker_slot <= STEP_WAITS * steps + 1
    assert STEP_WAITS < SEED_TOTAL_WAITS


def _parties(ctrl, n=2):
    import multiprocessing as mp

    wakers = tuple(mp.Semaphore(0) for _ in range(n))
    slots = np.zeros(n, dtype=np.int64)
    return wakers, [ShmBarrier(slots, p, ctrl, wakers=wakers) for p in range(n)]


def test_parked_waiter_is_woken_by_the_arrival(ctrl, monkeypatch):
    """A waiter parks on its semaphore and the late party's arrival posts
    it: with the park slice stretched to 5 s, returning in time proves the
    wake-up came from the post and not from a timer."""
    import threading
    import time

    from repro.dist import control

    monkeypatch.setattr(control, "_PARK_SECONDS", 5.0)
    _, (early, late) = _parties(ctrl)
    thread = threading.Thread(
        target=lambda: (time.sleep(0.05), late.wait(timeout=10.0))
    )
    thread.start()
    start = time.perf_counter()
    early.wait(timeout=10.0)
    elapsed = time.perf_counter() - start
    thread.join()
    assert 0.04 < elapsed < 2.0


def test_posts_do_not_pile_up(ctrl):
    """Every arrival posts every other party — also one that never parks
    because it always arrives last and finds the vector complete.  Each
    wait first drains what it was sent, so a semaphore never counts more
    than one barrier's arrivals (undrained, the late party's would reach
    ``rounds``)."""
    import threading
    import time

    rounds = 100
    wakers, (late, early) = _parties(ctrl)
    thread = threading.Thread(
        target=lambda: [early.wait(timeout=10.0) for _ in range(rounds)]
    )
    thread.start()
    for _ in range(rounds):
        time.sleep(0.001)
        late.wait(timeout=10.0)
    thread.join()
    assert late.epoch == early.epoch == rounds
    assert all(w.get_value() <= 1 for w in wakers)
