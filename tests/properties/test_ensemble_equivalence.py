"""Property test: batching N runs never changes any of them.

For randomized small parameterizations (2D and small 3D), batch sizes,
seeds and sweep values, every member of a batched :class:`EnsembleSimCov`
run must be **bitwise identical** to the solo sequential run with the
same (params, seed) — same voxel state and same time series at every
step.  Both sides run the one single-block backend, so each side draws
its own gate knobs (``active_gating``, ``tile_shape``, ``sweep_period``)
and each side is additionally cut at its own drawn step: its state (the
whole batch, on the batched side) is snapshotted and restored into a
fresh simulation that finishes the run.
This is the contract that lets the ensemble backend exist: randomness is
keyed ``(member_seed, stream, step, voxel)``, elementwise double/int ops
are batch-invariant, and the union gate region is a bitwise-invisible
superset per member (DESIGN.md §4d).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.model import SequentialSimCov
from repro.core.params import SimCovParams
from repro.engine.ensemble import EnsembleSimCov, expand_sweep
from repro.io.checkpoint import restore_state, snapshot_state

SLOW = settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

STATE_FIELDS = (
    "epi_state", "epi_timer", "virions", "chemokine",
    "tcell", "tcell_tissue_time", "tcell_bound_time",
)
SERIES_FIELDS = (
    "healthy", "incubating", "expressing", "apoptotic", "dead",
    "tcells_tissue", "virions_total", "chemokine_total",
    "tcells_vasculature", "extravasations", "binds", "moves",
)

STEPS = 25


def _random_params(draw):
    if draw(st.booleans()):
        dim = tuple(draw(st.integers(min_value=5, max_value=8)) for _ in range(3))
    else:
        dim = (draw(st.integers(min_value=10, max_value=20)),) * 2
    foi = draw(st.integers(min_value=0, max_value=3))
    return SimCovParams.fast_test(
        dim=dim, num_infections=foi, num_steps=STEPS,
    ).with_(
        infectivity=draw(st.floats(min_value=0.0, max_value=1.0)),
        incubation_period=draw(st.integers(min_value=1, max_value=10)),
        tcell_initial_delay=draw(st.integers(min_value=0, max_value=15)),
        tcell_generation_rate=draw(st.floats(min_value=0.0, max_value=40.0)),
        extravasate_fraction=draw(st.floats(min_value=0.0, max_value=0.6)),
    )


def _random_gate_knobs(draw, dim):
    """Constructor knobs that must never show in the results."""
    tile = draw(
        st.none()
        | st.tuples(*(st.integers(min_value=2, max_value=min(8, s)) for s in dim))
    )
    max_period = min(tile) if tile else min(8, *dim)
    return {
        "active_gating": draw(st.booleans()),
        "tile_shape": tile,
        "sweep_period": draw(
            st.none() | st.integers(min_value=1, max_value=max_period)
        ),
    }


def _run_with_restore(make, cut):
    """The run of ``make()``, cut at step ``cut`` and finished by a fresh
    simulation restored from the snapshot; returns that simulation and
    per member (one on a solo run) its series fields, which the restore
    started with the head's rows."""
    head = make()
    head.run(cut)
    tail = make()
    restore_state(tail, snapshot_state(head))
    tail.run(STEPS - cut)
    pairs = zip(
        getattr(head, "member_series", [head.series]),
        getattr(tail, "member_series", [tail.series]),
    )
    fields = []
    for h, t in pairs:
        assert list(t)[:cut] == list(h)
        fields.append({f: t.field(f) for f in SERIES_FIELDS})
    return tail, fields


def _assert_batched_matches_solo(members, seeds, knobs, solo_knobs, cuts):
    """Each member of the batch, cut at ``cuts[0]``, is bitwise its solo
    run, cut at ``cuts[1]``."""
    ens, ens_series = _run_with_restore(
        lambda: EnsembleSimCov(members, seeds=seeds, **knobs), cuts[0]
    )
    for b, seed in enumerate(seeds):
        p = members[b] if isinstance(members, list) else members
        solo, (series,) = _run_with_restore(
            lambda: SequentialSimCov(p, seed=int(seed), **solo_knobs), cuts[1]
        )
        for f in SERIES_FIELDS:
            assert np.array_equal(
                ens_series[b][f], series[f]
            ), f"member {b} series field {f} diverged"
        for f in STATE_FIELDS:
            assert np.array_equal(
                ens.gather_field(f, member=b), solo.gather_field(f)
            ), f"member {b} state field {f} diverged"


def _draw_and_assert(draw, members, seeds):
    dim = (members[0] if isinstance(members, list) else members).dim
    cut = st.integers(min_value=1, max_value=STEPS - 1)
    _assert_batched_matches_solo(
        members, seeds, _random_gate_knobs(draw, dim),
        _random_gate_knobs(draw, dim), (draw(cut), draw(cut)),
    )


#: Per sweep key, values whose members differ within STEPS steps of
#: SWEPT_WORLD: the pool keys in the vascular pool itself (which the
#: series reports), the others in the infection.
SWEPT_VALUES = {
    "num_infections": [0, 2, 4],
    "infectivity": [0.0, 0.5, 1.0],
    "incubation_period": [1, 3, 10],
    "tcell_generation_rate": [5.0, 20.0, 40.0],
    "tcell_initial_delay": [0, 6, 14],
    "tcell_vascular_period": [1, 40, 300],
}
SWEPT_WORLD = SimCovParams.fast_test(
    dim=(16, 16), num_infections=2, num_steps=STEPS
).with_(tcell_initial_delay=4, infectivity=0.8, incubation_period=3)


class TestEnsembleEquivalence:
    @given(data=st.data())
    @SLOW
    def test_uniform_ensemble_bitwise_identical_per_member(self, data):
        p = _random_params(data.draw)
        batch = data.draw(st.integers(min_value=1, max_value=4))
        seeds = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=10_000),
                min_size=batch, max_size=batch, unique=True,
            )
        )
        _draw_and_assert(data.draw, p, seeds)

    @given(data=st.data(), seed=st.integers(min_value=0, max_value=10_000))
    @SLOW
    def test_sweep_ensemble_bitwise_identical_per_member(self, data, seed):
        p = _random_params(data.draw)
        key, value_st = data.draw(
            st.sampled_from(
                [
                    ("num_infections", st.integers(min_value=0, max_value=4)),
                    ("infectivity", st.floats(min_value=0.0, max_value=1.0)),
                    (
                        "tcell_generation_rate",
                        st.floats(min_value=0.0, max_value=40.0),
                    ),
                    # The other two parameters of the one pool expression.
                    ("tcell_initial_delay", st.integers(min_value=0, max_value=STEPS)),
                    (
                        "tcell_vascular_period",
                        st.integers(min_value=1, max_value=300),
                    ),
                ]
            )
        )
        values = data.draw(st.lists(value_st, min_size=2, max_size=3))
        members = expand_sweep(p, key, values)
        _draw_and_assert(data.draw, members, [seed] * len(members))

    @pytest.mark.parametrize("key", sorted(SWEPT_VALUES))
    def test_each_sweep_key_is_applied_per_member(self, key):
        """A fixed world, one case per sweep key, so a slip that gives
        every member one member's value fails on every run."""
        members = expand_sweep(SWEPT_WORLD, key, SWEPT_VALUES[key])
        observed = "tcells_vasculature" if key.startswith("tcell_") else "infected"
        runs = [SequentialSimCov(p, seed=7).run(STEPS).field(observed) for p in members]
        assert all(not np.array_equal(runs[0], run) for run in runs[1:])
        knobs = {"active_gating": True, "tile_shape": None, "sweep_period": None}
        _assert_batched_matches_solo(members, [7] * 3, knobs, knobs, (9, 17))
