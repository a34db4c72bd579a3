"""Property test: the region-limited reduction is the whole-domain one.

``reduce`` counts the six integer statistics only inside the activity
gate's region and carries the rest as a cached ``outside`` term
(:class:`repro.core.stats.RegionReducer`).  After **every** step of a
randomized run the vector it reported must equal the whole-domain
reference — :func:`~repro.core.stats.stats_vector` on a solo block, and
on each member's solo-layout view of a batched one (so the reference
shares nothing with the batched code under test) — bit for bit, floats
included.

The draws cover what the cached term could get wrong: 2D and 3D grids
(one with non-power-of-two sides, 200 x 136), the number of foci, tile
shape and sweep period (how often and how far the region moves), gating
off (the region is the whole interior), the batch axis (None, 1, 3: the
union region is a superset of each member's own), an airway of EMPTY
voxels lying mostly outside the region, and a cut where the state is
snapshotted and restored into another, already stepped simulation that
finishes the run.

The float totals are summed over the region's rows widened to numpy's
reduction chunks (:func:`~repro.core.stats.interior_sum`).  On the small
grids a chunk holds every row, so only the wide 48 x 1024 layout (six
chunks of eight rows) sums fewer chunks than the interior: such steps are
a hypothesis event, and a fixed run on that layout asserts they occur.
"""

from unittest import mock

import numpy as np
from hypothesis import HealthCheck, event, given, settings, strategies as st

from repro.core import stats
from repro.core.model import SequentialSimCov
from repro.core.params import SimCovParams
from repro.core.stats import REDUCED_FIELDS, stats_vector
from repro.engine.ensemble import EnsembleSimCov
from repro.io.checkpoint import restore_state, snapshot_state

SLOW = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

STEPS = 24


def _draw_params(draw):
    dim = draw(
        st.sampled_from(
            [(200, 136), (48, 1024), (24, 24), (17, 29), (12, 10, 9), (8, 8, 8)]
        )
    )
    return SimCovParams.fast_test(
        dim=dim,
        num_infections=draw(st.integers(min_value=0, max_value=3)),
        num_steps=STEPS,
    ).with_(
        incubation_period=draw(st.integers(min_value=1, max_value=8)),
        tcell_initial_delay=draw(st.integers(min_value=0, max_value=10)),
        tcell_generation_rate=draw(st.floats(min_value=5.0, max_value=40.0)),
    )


def _draw_knobs(draw, dim):
    tile = draw(
        st.none()
        | st.tuples(*(st.integers(min_value=2, max_value=min(8, s)) for s in dim))
    )
    max_period = min(tile) if tile else min(8, *dim)
    knobs = {
        "active_gating": draw(st.booleans()),
        "tile_shape": tile,
        "sweep_period": draw(
            st.none() | st.integers(min_value=1, max_value=max_period)
        ),
    }
    if draw(st.booleans()):
        voxels = int(np.prod(dim))
        airway = np.random.default_rng(draw(st.integers(0, 999)))
        knobs["structure_gids"] = airway.choice(
            voxels, size=voxels // 16, replace=False
        )
    return knobs


def _build(params, seed, batch, knobs):
    if batch is None:
        return SequentialSimCov(params, seed=seed, **knobs)
    return EnsembleSimCov(params, seeds=seed + np.arange(batch), **knobs)


def _narrower_bands(spy) -> int:
    """How many ``interior_sum`` calls ``spy`` saw sum fewer reduction
    chunks than the whole interior."""
    narrower = 0
    for (field, interior, rows), _ in spy.call_args_list:
        top, end = interior[0].start, interior[0].stop
        k = rows and stats._probe(stats._chunk_rows, field.shape, interior)
        if k and (rows.start - top >= k or -(-(rows.stop - top) // k) * k < end - top):
            narrower += 1
    return narrower


def _assert_step_reduced_whole_domain(sim, batch, step):
    with mock.patch.object(stats, "interior_sum", wraps=stats.interior_sum) as spy:
        got_stats = sim.step()
    if _narrower_bands(spy):
        event("band narrower than the interior")
    if batch is None:
        got = np.array([getattr(got_stats, f) for f in REDUCED_FIELDS])
        want = stats_vector(sim.block)
    else:
        got = np.array([
            [getattr(series[-1], f) for f in REDUCED_FIELDS]
            for series in sim.member_series
        ])
        want = np.stack(
            [stats_vector(sim.block.member_view(b)) for b in range(batch)]
        )
    assert np.array_equal(got, want), (
        f"step {step}: reduced {got.tolist()} != whole-domain {want.tolist()}"
    )


class TestReduceEquivalence:
    @given(data=st.data(), seed=st.integers(min_value=0, max_value=10_000))
    @SLOW
    def test_reduced_vector_is_the_whole_domain_vector_every_step(
        self, data, seed
    ):
        draw = data.draw
        params = _draw_params(draw)
        batch = draw(st.sampled_from([None, 1, 3]))
        knobs = _draw_knobs(draw, params.dim)
        cut = draw(st.integers(min_value=1, max_value=STEPS - 1))
        stepped = draw(st.integers(min_value=0, max_value=STEPS))

        sim = _build(params, seed, batch, knobs)
        for step in range(cut):
            _assert_step_reduced_whole_domain(sim, batch, step)
        # Restore into a simulation that already ran, to before or after
        # the cut: its gate and its cached counts describe another state.
        other = _build(params, seed, batch, knobs)
        other.run(stepped)
        restore_state(other, snapshot_state(sim))
        for step in range(cut, STEPS):
            _assert_step_reduced_whole_domain(other, batch, step)

    def test_a_wide_layout_sums_a_narrower_band(self):
        """48 x 1024 with one focus: the region's rows are a few of the six
        chunks, so the float totals prune, and stay the whole-domain bits."""
        params = SimCovParams.fast_test(dim=(48, 1024), num_infections=1, num_steps=STEPS)
        sim = SequentialSimCov(params, seed=11)
        narrower = 0
        for step in range(STEPS):
            with mock.patch.object(stats, "interior_sum", wraps=stats.interior_sum) as spy:
                got = sim.step()
            narrower += _narrower_bands(spy)
            want = stats_vector(sim.block)
            assert np.array_equal([getattr(got, f) for f in REDUCED_FIELDS], want), step
        assert narrower > 0
