"""Restoring a snapshot into a simulation that has already stepped.

``restore_state`` used to be exercised only on fresh simulations, where
every gate starts all-active.  A simulation that has stepped carries
state derived from what it held before — the activity gate's region,
tile flags, the reducer's cached counts — and a restore that keeps any of
it processes (or counts) the wrong part of the domain: restoring
*forward*, to a later and wider infection, the old region is too small
and activity outside it is never updated.
"""

import numpy as np

from repro.core.model import SequentialSimCov
from repro.core.params import SimCovParams
from repro.core.stats import RegionReducer
from repro.engine.ensemble import EnsembleSimCov
from repro.io.checkpoint import CHECKPOINT_FIELDS, restore_state, snapshot_state

PARAMS = SimCovParams.fast_test(dim=(64, 64), num_infections=1, num_steps=60)
STEPPED, SNAP_AT, TOTAL = 8, 40, 50


def _reference(seed):
    """(snapshot at SNAP_AT, the finished reference run) for ``seed``."""
    ref = SequentialSimCov(PARAMS, seed=seed)
    ref.run(SNAP_AT)
    snap = snapshot_state(ref)
    ref.run(TOTAL - SNAP_AT)
    return snap, ref


def _swept_count(seed):
    """Active voxels of an uninterrupted run's gate at the snapshot: its
    periodic sweep at the end of step ``SNAP_AT - 1`` saw exactly the
    state the snapshot holds."""
    sim = SequentialSimCov(PARAMS, seed=seed)
    assert SNAP_AT % sim.gate.sweep_period == 0
    sim.run(SNAP_AT)
    assert 0 < sim.gate.count < sim.gate.mask.size
    return sim.gate.count


def _assert_continues_like(sim, ref):
    for step in range(SNAP_AT, TOTAL):
        assert sim.step() == ref.series[step], f"stats diverged at step {step}"
    for name in CHECKPOINT_FIELDS:
        assert np.array_equal(sim.gather_field(name), ref.gather_field(name)), name


def test_sequential_restore_forward():
    snap, ref = _reference(seed=3)
    sim = SequentialSimCov(PARAMS, seed=3)
    sim.run(STEPPED)
    restore_state(sim, snap)
    _assert_continues_like(sim, ref)


def test_sequential_restore_is_swept_by_its_first_step():
    """The restored gate is all-active only until the next step runs: one
    step later it tracks what an uninterrupted run tracks, and the series
    is still the uninterrupted one.  Mutation check: without the stale
    sweep in ``SingleBlockBackend.phase_age_extravasate`` the count is the
    whole domain for ``sweep_period`` more steps."""
    snap, ref = _reference(seed=3)
    sim = SequentialSimCov(PARAMS, seed=3)
    sim.run(STEPPED)
    restore_state(sim, snap)
    assert sim.gate.count == sim.gate.mask.size
    assert sim.step() == ref.series[SNAP_AT]
    assert sim.gate.count == _swept_count(seed=3)


def test_ensemble_restore_forward():
    seeds = [3, 4]
    refs = [_reference(seed)[1] for seed in seeds]
    head = EnsembleSimCov(PARAMS, seeds=seeds)
    head.run(SNAP_AT)
    ens = EnsembleSimCov(PARAMS, seeds=seeds)
    ens.run(STEPPED)
    restore_state(ens, snapshot_state(head))
    ens.step()
    # Swept by that first step (see the sequential test above).
    assert list(ens.gate.member_counts) == [_swept_count(s) for s in seeds]
    ens.run(TOTAL - SNAP_AT - 1)
    for b, ref in enumerate(refs):
        series = ens.member_series[b]
        assert len(series) == TOTAL
        for step in range(TOTAL):
            assert series[step] == ref.series[step], (b, step)
        for name in CHECKPOINT_FIELDS:
            assert np.array_equal(
                ens.gather_field(name, member=b), ref.gather_field(name)
            ), (b, name)


def test_one_whole_domain_count_per_construction_and_restore(monkeypatch):
    """A steady-state step counts its region only; the whole domain is
    counted once after construction and once after each restore."""
    sweeps = []
    whole = RegionReducer.whole_domain_counts
    monkeypatch.setattr(
        RegionReducer, "whole_domain_counts",
        lambda self: sweeps.append(1) or whole(self),
    )
    snap, ref = _reference(seed=3)
    assert len(sweeps) == 1  # the reference's own
    sim = SequentialSimCov(PARAMS, seed=3)
    sim.run(STEPPED * 2)
    assert len(sweeps) == 2
    restore_state(sim, snap)
    sim.run(TOTAL - SNAP_AT)
    assert len(sweeps) == 3
    # ... and ungated is the same reducer, its region the whole interior.
    ungated = SequentialSimCov(PARAMS, seed=3, active_gating=False)
    ungated.run(STEPPED)
    assert len(sweeps) == 4
    assert type(ungated.backend.reducer) is RegionReducer
