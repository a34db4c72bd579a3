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

The float totals read only the part of numpy's summation tree that the
region meets (:func:`~repro.core.stats.float_totals`).  On the small grids
a chunk holds every row and most leaves span several rows, so a fixed run
on the wide 48 x 1024 layout (six chunks of eight rows, eight leaves a
row) pins that the part read is narrower than the interior: with every
element outside it poisoned, the totals keep the whole-domain bits.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import native, stats
from repro.core.model import SequentialSimCov
from repro.core.params import SimCovParams
from repro.core.stats import REDUCED_FIELDS, stats_vector
from repro.engine.ensemble import EnsembleSimCov
from repro.io.checkpoint import restore_state, snapshot_state
from tests.core.test_float_band import leaves

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


def _support(block, region) -> np.ndarray:
    """The interior elements the float totals read for ``region``: the
    leaves that meet it (compiled pass), or its rows widened to numpy's
    chunks (numpy twin)."""
    sl = block.interior
    view = block.virions[sl]
    if native.tier() is not None:
        k = stats._probe(stats._compiled_fold, block.shape, sl)
        box = tuple(slice(r.start - 1, r.stop - 1) for r in region)
        return leaves(view.shape, k, box)
    k = stats._probe(stats._chunk_rows, block.shape, sl)
    lo, hi = region[0].start - 1, region[0].stop - 1
    read = np.zeros(view.shape, bool)
    read[lo // k * k:-(-hi // k) * k] = True
    return read


def _assert_step_reduced_whole_domain(sim, batch, step):
    got_stats = sim.step()
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
        """48 x 1024 with one focus: the float totals read only the part of
        numpy's summation tree that the region meets — on the compiled
        tier its leaves, on the numpy twin the region's reduction chunks —
        and that is less than the interior on some steps.  Every element
        outside that part is set to NaN in a copy of the fields, whose
        totals must still be the whole-domain bits."""
        params = SimCovParams.fast_test(dim=(48, 1024), num_infections=1, num_steps=STEPS)
        sim = SequentialSimCov(params, seed=11)
        narrower = 0
        for step in range(STEPS):
            got = sim.step()
            want = stats_vector(sim.block)
            assert np.array_equal([getattr(got, f) for f in REDUCED_FIELDS], want), step
            region = sim.backend.gate.region()
            if region is None:
                continue
            block, sl = sim.block, sim.block.interior
            unread = ~_support(block, region)
            narrower += bool(unread.any())
            poisoned = [getattr(block, name).copy() for name in ("virions", "chemokine")]
            for field in poisoned:
                field[sl][unread] = np.nan
            copies = stats.FloatFields(block.spec, *poisoned)
            assert np.array_equal(stats.float_totals(copies, region), want[-2:]), step
        assert narrower > 0
