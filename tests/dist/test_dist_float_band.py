"""The coordinator's float totals over the row hull of the live boxes.

Each step the dist coordinator sums its private float arrays only over the
rows of the boxes it just copied, widened to numpy's reduction chunks
(:func:`repro.core.stats.interior_sum`).  On a 60 x 1024 grid a chunk is
eight rows (the last one four), so a wrong band shows in the bits.  The
series must equal the sequential run's at every step when every rank is
idle (the band is empty from the first step on), after a restore (the
``everything`` refresh: the band is the whole interior), and while two
foci on different ranks and rows grow across chunk boundaries.  Which
refresh ran is pinned too: a fresh run copies only the published boxes,
its first step included, and a restore makes exactly one whole copy.
"""

import contextlib
from unittest import mock

import numpy as np
import pytest

from repro.core.model import SequentialSimCov
from repro.core.params import SimCovParams
from repro.core.stats import interior_sum
from repro.dist import DistSimCov
from repro.dist import backend as dist_backend
from repro.grid.decomposition import DecompositionKind
from repro.grid.spec import GridSpec
from repro.io.checkpoint import restore_state, snapshot_state

DIM = (60, 1024)
STEPS = 30
PARAMS = SimCovParams.fast_test(dim=DIM, num_infections=2, num_steps=STEPS)
#: One focus near rank 0's chunk boundary, one in the last rank's columns.
FOCI = GridSpec(DIM).ravel(np.array([[14, 100], [45, 900]]))
WHOLE = slice(1, DIM[0] + 1)
CHUNK = 8192 // DIM[1]


@pytest.fixture(scope="module")
def reference():
    """The sequential run and its state after step 10."""
    ref = SequentialSimCov(PARAMS, seed=3, seed_gids=FOCI)
    ref.run(10)
    snap = snapshot_state(ref)
    ref.run(STEPS - 10)
    return ref, snap


def _bands(spy) -> list:
    """The ``rows`` of each step's two sums, one entry per step."""
    rows = [call.args[2] for call in spy.call_args_list]
    assert rows[::2] == rows[1::2]
    return rows[::2]


def _spy():
    return mock.patch.object(dist_backend, "interior_sum", wraps=interior_sum)


@contextlib.contextmanager
def _copies(sim):
    """Per float refresh of ``sim``'s coordinator: ``"boxes"`` if it read
    the ranks' published boxes, ``"all"`` if it copied every interior."""
    backend = sim.backend
    ctrl, refresh = backend.runtime.ctrl, backend._refresh_floats
    reads, log = [], []

    def read_region(*args):
        reads.append(args)
        return type(ctrl).read_region(ctrl, *args)

    def logged():
        before = len(reads)
        rows = refresh()
        log.append("boxes" if len(reads) > before else "all")
        return rows

    with mock.patch.object(ctrl, "read_region", read_region), \
            mock.patch.object(backend, "_refresh_floats", logged):
        yield log


def test_idle_ranks_sum_nothing(nranks):
    params = PARAMS.with_(num_infections=0)
    ref = SequentialSimCov(params, seed=3)
    ref.run(6)
    with DistSimCov(params, nranks=nranks, seed=3) as sim, _spy() as spy:
        sim.run(6)
        assert [sim.series[i] for i in range(6)] == [ref.series[i] for i in range(6)]
    # Every box is None from the first step on: a fresh run's copies are
    # already current.
    assert _bands(spy) == [None] * 6


@pytest.mark.parametrize("kind", list(DecompositionKind), ids=lambda k: k.name)
def test_boxes_crossing_chunk_boundaries(reference, nranks, kind):
    ref, _ = reference
    with DistSimCov(
        PARAMS, nranks=nranks, seed=3, seed_gids=FOCI, decomposition=kind
    ) as sim, _spy() as spy:
        sim.run(STEPS)
        for step in range(STEPS):
            assert sim.series[step] == ref.series[step], f"diverged at step {step}"
    bands = _bands(spy)[1:]
    spans = {(r.start - 1) // CHUNK for r in bands} | {
        -(-(r.stop - 1) // CHUNK) for r in bands
    }
    assert len(spans) > 2  # the hull's ends moved across chunk boundaries
    assert any(r != WHOLE for r in bands)


def test_restore_sums_the_whole_interior_once(reference, nranks):
    ref, snap = reference
    with DistSimCov(PARAMS, nranks=nranks, seed=3, seed_gids=FOCI) as sim:
        sim.run(20)
        restore_state(sim, snap)
        with _spy() as spy:
            for step in range(10, STEPS):
                assert sim.step() == ref.series[step], f"diverged at step {step}"
    bands = _bands(spy)
    assert bands[0] == WHOLE and any(r != WHOLE for r in bands[1:])


@pytest.mark.parametrize("kind", list(DecompositionKind), ids=lambda k: k.name)
def test_only_a_restore_copies_everything(reference, nranks, kind):
    """A fresh run copies the boxes from its first step on; a restore
    before the first step and one into a stepped run each copy every
    interior exactly once.  Every row is the sequential one."""
    ref, snap = reference

    def dist():
        return DistSimCov(PARAMS, nranks=nranks, seed=3, seed_gids=FOCI, decomposition=kind)

    with dist() as sim, _copies(sim) as log:
        sim.run(12)
        assert [sim.series[i] for i in range(12)] == [ref.series[i] for i in range(12)]
        assert log == ["boxes"] * 12
        restore_state(sim, snap)
        for step in range(10, STEPS):
            assert sim.step() == ref.series[step], f"diverged at step {step}"
        assert log[12:] == ["all"] + ["boxes"] * (STEPS - 11)
    with dist() as sim, _copies(sim) as log:
        restore_state(sim, snap)
        sim.run(STEPS - 10)
        # The restored series is the whole run's, rows 0-9 included.
        assert list(sim.series) == list(ref.series)
        assert log == ["all"] + ["boxes"] * (STEPS - 11)
