"""Property test: batching N runs never changes any of them.

For randomized small parameterizations (2D and small 3D), batch sizes,
seeds and sweep values, every member of a batched :class:`EnsembleSimCov`
run must be **bitwise identical** to the solo sequential run with the
same (params, seed) — same voxel state and same time series at every
step.  Both sides run the one single-block backend, so each side draws
its own gate knobs (``active_gating``, ``tile_shape``, ``sweep_period``)
and the solo side is additionally cut at a drawn step: its state is
snapshotted and restored into a fresh simulation that finishes the run.
This is the contract that lets the ensemble backend exist: randomness is
keyed ``(member_seed, stream, step, voxel)``, elementwise double/int ops
are batch-invariant, and the union gate region is a bitwise-invisible
superset per member (DESIGN.md §4d).
"""

import numpy as np
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


def _solo_run_with_restore(p, seed, knobs, cut):
    """The solo run, cut at step ``cut`` and finished by a fresh simulation
    restored from the snapshot; returns that simulation and the stitched
    series fields."""
    head = SequentialSimCov(p, seed=seed, **knobs)
    head.run(cut)
    tail = SequentialSimCov(p, seed=seed, **knobs)
    restore_state(tail, snapshot_state(head))
    tail.run(STEPS - cut)
    series = {
        f: np.concatenate([head.series.field(f), tail.series.field(f)])
        for f in SERIES_FIELDS
    }
    return tail, series


def _assert_batched_matches_solo(draw, members, seeds):
    dim = (members[0] if isinstance(members, list) else members).dim
    ens = EnsembleSimCov(members, seeds=seeds, **_random_gate_knobs(draw, dim))
    ens.run(STEPS)
    solo_knobs = _random_gate_knobs(draw, dim)
    cut = draw(st.integers(min_value=1, max_value=STEPS - 1))
    for b, seed in enumerate(seeds):
        p = members[b] if isinstance(members, list) else members
        solo, series = _solo_run_with_restore(p, int(seed), solo_knobs, cut)
        for f in SERIES_FIELDS:
            assert np.array_equal(
                ens.member_series[b].field(f), series[f]
            ), f"member {b} series field {f} diverged"
        for f in STATE_FIELDS:
            assert np.array_equal(
                ens.gather_field(f, member=b), solo.gather_field(f)
            ), f"member {b} state field {f} diverged"


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
        _assert_batched_matches_solo(data.draw, p, seeds)

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
        _assert_batched_matches_solo(data.draw, members, [seed] * len(members))
