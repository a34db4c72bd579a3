"""Restoring into a distributed run that has already stepped.

A restore rewrites the shared-memory interiors behind the workers' backs
and bumps the ghost-invalidation epoch.  Besides re-pulling every strip,
that epoch must make every worker recount its integer statistics (its
cached outside-the-region counts describe the overwritten state) and the
coordinator re-copy both float fields in full (it otherwise copies only
each rank's live box).  Forward, to a later and wider infection, exercises
the first; backward, to an earlier one whose region is *smaller* than the
stale data around it, the second.  The focus sits in the middle of rank
0's block so the infection touches neither a domain edge nor — going
backward — another rank.
"""

import numpy as np
import pytest

from repro.core.model import SequentialSimCov
from repro.core.params import SimCovParams
from repro.dist import DistSimCov
from repro.grid.spec import GridSpec
from repro.io.checkpoint import CHECKPOINT_FIELDS, restore_state, snapshot_state

DIM = (96, 96)
PARAMS = SimCovParams.fast_test(dim=DIM, num_infections=1, num_steps=60)
FOCUS = GridSpec(DIM).ravel(np.array([[20, 20]]))
EARLY, LATE, TAIL = 3, 30, 8


@pytest.fixture(scope="module")
def reference():
    """Snapshots at EARLY and LATE and the series of the uninterrupted
    sequential run, TAIL steps past LATE."""
    ref = SequentialSimCov(PARAMS, seed=5, seed_gids=FOCUS)
    snaps = {}
    for at in (EARLY, LATE):
        ref.run(at - ref.step_num)
        snaps[at] = snapshot_state(ref)
    ref.run(TAIL)
    return snaps, ref


@pytest.mark.parametrize(
    "stepped,restored", [(EARLY, LATE), (LATE, EARLY)],
    ids=["forward", "backward"],
)
def test_restore_into_stepped_dist_run_continues_bitwise(
    reference, nranks, stepped, restored
):
    snaps, ref = reference
    with DistSimCov(PARAMS, nranks=nranks, seed=5, seed_gids=FOCUS) as sim:
        sim.run(stepped)
        restore_state(sim, snaps[restored])
        for step in range(restored, restored + TAIL):
            assert sim.step() == ref.series[step], f"diverged at step {step}"
        if restored == LATE:
            for name in CHECKPOINT_FIELDS:
                assert np.array_equal(
                    sim.gather_field(name), ref.gather_field(name)
                ), name
