"""Cross-boundary T-cell contention on the multi-process runtime.

A dense crowd of T cells over the whole domain, with bind targets on the
2x2 rank seam, guarantees move and bind conflicts in every step, across
rank boundaries included.  Exact sequential agreement under this load is
the sharpest test of the runtime's single-wave §3.1 bid protocol (the
two-wave RPC protocol's equivalence is
tests/properties/test_two_wave_tiebreak.py).  The crowd enters every
run through ``restore_state``.

The crowd fills every rank, so it cannot tell whether a rank that owns
no T cell still resolves the bids its neighbours' T cells place on its
voxels.  The one-sided seam world can: every T cell starts on the last
row above the seam, every bind target and every free voxel the crowd
steps into lies below it.
"""

import numpy as np
import pytest

from repro.core.model import SequentialSimCov
from repro.dist import DistSimCov
from repro.io.checkpoint import restore_state, snapshot_state
from tests.perf.worlds import crowd, seam, world

STEPS = 40
FIELDS = ("tcell", "tcell_tissue_time", "tcell_bound_time", "epi_state", "epi_timer")


def _world(name, setup):
    """The world as a snapshot, the sequential run from it, and a cache of
    each rank count's run: ``{nranks: (series, fields)}``."""
    params, seed, _, _ = world(name)
    seq = SequentialSimCov(params, seed=seed)
    setup([seq.block], seq.spec)
    snap = snapshot_state(seq)
    seq.run(STEPS)
    return params, seed, snap, seq, {}


@pytest.fixture(scope="module")
def crowded():
    return _world("crowd_2d", crowd)


@pytest.fixture(scope="module")
def one_sided():
    return _world("seam_2d", seam)


def _dist(crowded, nranks):
    params, seed, snap, _, runs = crowded
    if nranks not in runs:
        with DistSimCov(params, nranks=nranks, seed=seed) as sim:
            restore_state(sim, snap)
            sim.run(STEPS)
            runs[nranks] = (sim.series, {f: sim.gather_field(f) for f in FIELDS})
    return runs[nranks]


class TestCrowdedTiebreaks:
    def test_conservation_under_heavy_conflict(self, crowded, nranks):
        seq = crowded[3]
        n0 = int(seq.block.tcell.sum())
        assert n0 > 150  # the crowd is dense
        series, _ = _dist(crowded, nranks)
        for i in range(STEPS):
            got, want = series[i], seq.series[i]
            for stat in ("tcells_tissue", "moves", "binds"):
                assert getattr(got, stat) == getattr(want, stat), f"{stat} at step {i}"

    def test_exact_state_after_crowded_run(self, crowded, nranks):
        seq = crowded[3]
        _, fields = _dist(crowded, nranks)
        for f in FIELDS:
            np.testing.assert_array_equal(
                getattr(seq.block, f)[seq.block.interior], fields[f], err_msg=f
            )

    def test_conflicts_actually_happened(self, crowded):
        """The scenario must exercise contention: fewer moves than movers."""
        seq = crowded[3]
        total_moves = sum(s.moves for s in seq.series)
        tcells = seq.series[0].tcells_tissue
        # With 35% density, far fewer than one move per cell per step.
        assert 0 < total_moves < 0.8 * tcells * len(seq.series)

    def test_binding_contention_resolved_once_per_cell(self, crowded):
        """Every apoptotic transition was caused by exactly one winner:
        bound T cells never exceed apoptotic conversions."""
        seq = crowded[3]
        total_binds = sum(s.binds for s in seq.series)
        assert total_binds > 0
        bound_now = int((seq.block.tcell_bound_time > 0).sum())
        assert bound_now <= total_binds


class TestOneSidedSeam:
    def test_series_matches_sequential(self, one_sided, nranks):
        seq = one_sided[3]
        series, _ = _dist(one_sided, nranks)
        for i in range(STEPS):
            got, want = series[i], seq.series[i]
            for stat in ("tcells_tissue", "moves", "binds"):
                assert getattr(got, stat) == getattr(want, stat), f"{stat} at step {i}"

    def test_exact_state(self, one_sided, nranks):
        seq = one_sided[3]
        _, fields = _dist(one_sided, nranks)
        for f in FIELDS:
            np.testing.assert_array_equal(
                getattr(seq.block, f)[seq.block.interior], fields[f], err_msg=f
            )

    def test_the_seam_is_crossed(self, one_sided):
        """Binds land below the seam at the first step, and T cells step
        across it later."""
        seq = one_sided[3]
        assert seq.series[0].binds > 0
        assert sum(s.moves for s in seq.series) > 0
        assert seq.block.tcell[seq.block.interior][12:].any()
