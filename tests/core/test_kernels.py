"""Unit tests for the shared update kernels."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import kernels
from repro.core.params import ParamsStack, SimCovParams
from repro.core.state import EnsembleBlock, EpiState, VoxelBlock
from repro.grid.box import Box
from repro.grid.spec import GridSpec
from repro.rng.streams import VoxelRNG


@pytest.fixture
def params():
    return SimCovParams.fast_test(dim=(12, 12), num_infections=1)


@pytest.fixture
def block(params):
    spec = GridSpec(params.dim)
    return VoxelBlock(spec, spec.domain)


@pytest.fixture
def rng():
    return VoxelRNG(7)


def put_tcell(block, x, y, life=50, bound=0):
    """Place a T cell at *global* (x, y)."""
    g = block.ghost
    block.tcell[x + g, y + g] = 1
    block.tcell_tissue_time[x + g, y + g] = life
    block.tcell_bound_time[x + g, y + g] = bound


class TestTcellAge:
    def test_decrement_and_death(self, block):
        put_tcell(block, 3, 3, life=1)
        put_tcell(block, 5, 5, life=10)
        kernels.tcell_age(block, block.interior)
        assert block.tcell[4, 4] == 0  # died
        assert block.tcell[6, 6] == 1
        assert block.tcell_tissue_time[6, 6] == 9

    def test_bound_countdown(self, block):
        put_tcell(block, 2, 2, life=50, bound=3)
        kernels.tcell_age(block, block.interior)
        assert block.tcell_bound_time[3, 3] == 2

    def test_unbound_stays_zero(self, block):
        put_tcell(block, 2, 2, life=50, bound=0)
        kernels.tcell_age(block, block.interior)
        assert block.tcell_bound_time[3, 3] == 0


class TestIntents:
    def test_lone_tcell_moves(self, params, block, rng):
        put_tcell(block, 6, 6)
        intents = kernels.IntentArrays(block.shape)
        kernels.tcell_intents(params, rng, 0, block, intents, block.interior)
        assert intents.move_dir[7, 7] >= 0
        assert intents.bid_self[7, 7] > 0
        assert intents.bind_dir[7, 7] == -1
        # Exactly one target voxel has a move bid.
        assert (intents.move_bid > 0).sum() == 1

    def test_bound_tcell_no_intent(self, params, block, rng):
        put_tcell(block, 6, 6, bound=2)
        intents = kernels.IntentArrays(block.shape)
        kernels.tcell_intents(params, rng, 0, block, intents, block.interior)
        assert intents.move_dir[7, 7] == -1
        assert intents.bind_dir[7, 7] == -1

    def test_binder_prefers_bind_over_move(self, params, block, rng):
        put_tcell(block, 6, 6)
        block.epi_state[7, 8] = EpiState.EXPRESSING  # neighbor of (6,6)
        intents = kernels.IntentArrays(block.shape)
        kernels.tcell_intents(params, rng, 0, block, intents, block.interior)
        assert intents.bind_dir[7, 7] >= 0
        assert intents.move_dir[7, 7] == -1
        assert intents.bind_bid[7, 8] > 0

    def test_incubating_not_bindable(self, params, block, rng):
        put_tcell(block, 6, 6)
        block.epi_state[7, 8] = EpiState.INCUBATING
        intents = kernels.IntentArrays(block.shape)
        kernels.tcell_intents(params, rng, 0, block, intents, block.interior)
        assert intents.bind_dir[7, 7] == -1
        assert intents.move_dir[7, 7] >= 0

    def test_surrounded_tcell_blocked(self, params, block, rng):
        put_tcell(block, 6, 6)
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                if dx or dy:
                    put_tcell(block, 6 + dx, 6 + dy)
        intents = kernels.IntentArrays(block.shape)
        kernels.tcell_intents(params, rng, 0, block, intents, block.interior)
        assert intents.move_dir[7, 7] == -1  # all neighbors occupied

    def test_corner_tcell_never_targets_outside(self, params, block, rng):
        """A T cell at the domain corner must not move out of the domain.
        Run many steps so every direction is eventually drawn."""
        put_tcell(block, 0, 0, life=10**6)
        intents = kernels.IntentArrays(block.shape)
        for step in range(50):
            intents.clear()
            kernels.tcell_intents(params, rng, step, block, intents, block.interior)
            d = intents.move_dir[1, 1]
            if d >= 0:
                from repro.grid.spec import moore_offsets

                off = moore_offsets(2)[d]
                target = np.array([0, 0]) + off
                assert (target >= 0).all(), f"step {step} moved out {target}"

    def test_contested_target_keeps_every_bidders_max(self, params, block, rng, tier):
        """On each tier, the bind bids of the eight T cells around one
        expressing cell land on one index: an atomic max, not a buffered
        ``arr[idx] = max(arr[idx], v)``, where the last write would win."""
        block.epi_state[7, 7] = EpiState.EXPRESSING
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                if dx or dy:
                    put_tcell(block, 6 + dx, 6 + dy)
        intents = kernels.IntentArrays(block.shape)
        kernels.tcell_intents(params, rng, 0, block, intents, block.interior)
        bids = intents.bid_self[6:9, 6:9].reshape(-1)[[0, 1, 2, 3, 5, 6, 7, 8]]
        assert (bids > 0).all() and bids[-1] != bids.max()  # the last write loses
        assert intents.bind_bid[7, 7] == bids.max()
        assert (intents.bind_bid > 0).sum() == 1

    def test_clear_resets(self, params, block, rng):
        put_tcell(block, 6, 6)
        intents = kernels.IntentArrays(block.shape)
        kernels.tcell_intents(params, rng, 0, block, intents, block.interior)
        intents.clear()
        assert (intents.move_dir == -1).all()
        assert (intents.bid_self == 0).all()


class TestResolveMoves:
    def test_single_mover_moves(self, params, block, rng):
        put_tcell(block, 6, 6, life=42)
        intents = kernels.IntentArrays(block.shape)
        kernels.tcell_intents(params, rng, 0, block, intents, block.interior)
        moved = kernels.resolve_moves(block, intents, block.interior)
        assert moved == 1
        assert block.tcell.sum() == 1
        assert block.tcell[7, 7] == 0  # vacated
        assert block.tcell_tissue_time.sum() == 42  # payload moved intact

    def test_conflict_one_winner(self, params, block, rng):
        """Two T cells bidding on the same voxel: exactly one moves."""
        # Place cells around (6,6) and force their choices by scanning steps
        # until both target the same voxel.
        put_tcell(block, 5, 5, life=10**6)
        put_tcell(block, 7, 7, life=10**6)
        from repro.grid.spec import moore_offsets

        offs = moore_offsets(2)
        found = False
        for step in range(500):
            intents = kernels.IntentArrays(block.shape)
            kernels.tcell_intents(params, rng, step, block, intents, block.interior)
            d1, d2 = intents.move_dir[6, 6], intents.move_dir[8, 8]
            if d1 < 0 or d2 < 0:
                continue
            t1 = np.array([5, 5]) + offs[d1]
            t2 = np.array([7, 7]) + offs[d2]
            if (t1 == t2).all():
                found = True
                before = int(block.tcell.sum())
                kernels.resolve_moves(block, intents, block.interior)
                after = int(block.tcell.sum())
                assert after == before == 2  # conservation
                # Exactly one landed on the contested voxel.
                assert block.tcell[t1[0] + 1, t1[1] + 1] == 1
                break
        assert found, "no conflicting step found in 500 tries"

    def test_conservation_over_many_steps(self, params, block, rng):
        rs = np.random.default_rng(0)
        for _ in range(12):
            x, y = rs.integers(0, 12, size=2)
            put_tcell(block, int(x), int(y), life=10**6)
        n0 = int(block.tcell.sum())
        for step in range(30):
            intents = kernels.IntentArrays(block.shape)
            kernels.tcell_intents(params, rng, step, block, intents, block.interior)
            kernels.resolve_moves(block, intents, block.interior)
            assert int(block.tcell.sum()) == n0
            # Occupancy is 0/1 everywhere.
            assert block.tcell.max() <= 1


class TestRegionNeutral:
    """The T-cell kernels gather their agents from whatever region they
    are handed: any region holding the T cells (and, for resolution, the
    voxels they bid on) gives the whole-interior result."""

    def test_box_equals_interior(self, params, rng):
        spec = GridSpec(params.dim)
        outcomes = []
        for boxed in (False, True):
            block = VoxelBlock(spec, spec.domain)
            rs = np.random.default_rng(3)
            for x, y in rs.integers(3, 9, size=(10, 2)):
                put_tcell(block, int(x), int(y), life=10**6)
            for x, y in rs.integers(3, 9, size=(6, 2)):
                block.epi_state[x + 1, y + 1] = EpiState.EXPRESSING
            intents = kernels.IntentArrays(block.shape)
            for step in range(6):
                # T cells drift one voxel a step from [3, 9): these boxes
                # (padded coordinates, clamped to the interior [1, 13))
                # hold them and their targets.
                inner = outer = block.interior
                if boxed:
                    inner = (slice(max(1, 4 - step), min(13, 10 + step)),) * 2
                    outer = (slice(max(1, 3 - step), min(13, 11 + step)),) * 2
                intents.clear(block.interior)
                kernels.tcell_intents(params, rng, step, block, intents, inner)
                moved = kernels.resolve_moves(block, intents, outer)
                bound = kernels.resolve_binds(params, rng, step, block, intents, outer)
                outcomes.append((boxed, step, moved, bound))
            outcomes.append({
                name: getattr(block, name).copy()
                for name in VoxelBlock.FIELD_DTYPES
            })
        whole, boxed = outcomes[6], outcomes[13]
        assert [o[2:] for o in outcomes[:6]] == [o[2:] for o in outcomes[7:13]]
        assert sum(o[2] for o in outcomes[:6]) > 0
        assert sum(o[3] for o in outcomes[:6]) > 0
        for name in whole:
            assert np.array_equal(whole[name], boxed[name]), name


class TestResolveBinds:
    def test_bind_triggers_apoptosis(self, params, block, rng):
        put_tcell(block, 6, 6)
        block.epi_state[7, 8] = EpiState.EXPRESSING
        intents = kernels.IntentArrays(block.shape)
        kernels.tcell_intents(params, rng, 0, block, intents, block.interior)
        binds = kernels.resolve_binds(params, rng, 0, block, intents, block.interior)
        assert binds == 1
        assert block.epi_state[7, 8] == EpiState.APOPTOTIC
        assert block.epi_timer[7, 8] >= 1
        assert block.tcell_bound_time[7, 7] == params.tcell_binding_period

    def test_two_binders_one_wins(self, params, block, rng):
        block.epi_state[7, 7] = EpiState.EXPRESSING
        put_tcell(block, 6, 6)
        put_tcell(block, 6, 7)
        intents = kernels.IntentArrays(block.shape)
        kernels.tcell_intents(params, rng, 0, block, intents, block.interior)
        kernels.resolve_binds(params, rng, 0, block, intents, block.interior)
        bound = (block.tcell_bound_time > 0).sum()
        assert bound == 1  # exactly one binder won


class TestEpithelialUpdate:
    def test_infection_requires_virions(self, params, block, rng):
        kernels.epithelial_update(params, rng, 0, block, block.interior)
        assert (block.epi_state[block.interior] == EpiState.HEALTHY).all()

    def test_infection_with_certainty(self, block, rng):
        p = SimCovParams.fast_test(dim=(12, 12)).with_(infectivity=1.0)
        block.virions[block.interior] = 1.0
        kernels.epithelial_update(p, rng, 0, block, block.interior)
        assert (block.epi_state[block.interior] == EpiState.INCUBATING).all()
        assert (block.epi_timer[block.interior] >= 1).all()

    def test_single_transition_per_step(self, params, block, rng):
        """A cell that becomes expressing must not also die this step."""
        block.epi_state[3, 3] = EpiState.INCUBATING
        block.epi_timer[3, 3] = 1
        kernels.epithelial_update(params, rng, 0, block, block.interior)
        assert block.epi_state[3, 3] == EpiState.EXPRESSING
        assert block.epi_timer[3, 3] >= 1

    def test_expressing_dies_at_timeout(self, params, block, rng):
        block.epi_state[3, 3] = EpiState.EXPRESSING
        block.epi_timer[3, 3] = 1
        kernels.epithelial_update(params, rng, 0, block, block.interior)
        assert block.epi_state[3, 3] == EpiState.DEAD

    def test_apoptotic_dies_at_timeout(self, params, block, rng):
        block.epi_state[3, 3] = EpiState.APOPTOTIC
        block.epi_timer[3, 3] = 2
        kernels.epithelial_update(params, rng, 0, block, block.interior)
        assert block.epi_state[3, 3] == EpiState.APOPTOTIC
        kernels.epithelial_update(params, rng, 1, block, block.interior)
        assert block.epi_state[3, 3] == EpiState.DEAD


class TestProduction:
    def test_producers_and_clamp(self, params, block):
        block.epi_state[2, 2] = EpiState.INCUBATING
        block.epi_state[3, 3] = EpiState.EXPRESSING
        block.epi_state[4, 4] = EpiState.APOPTOTIC
        block.epi_state[5, 5] = EpiState.DEAD
        block.virions[3, 3] = 0.95
        kernels.production_update(params, block, block.interior)
        assert block.virions[2, 2] == pytest.approx(params.virion_production)
        assert block.virions[3, 3] == 1.0  # clamped
        assert block.virions[4, 4] > 0
        assert block.virions[5, 5] == 0.0
        # Chemokine only from detectable states.
        assert block.chemokine[2, 2] == 0.0
        assert block.chemokine[3, 3] > 0
        assert block.chemokine[4, 4] > 0


class TestExtravasation:
    def test_attempt_schedule_deterministic(self, params, rng):
        a = kernels.extravasation_attempts(params, rng, 5, pool=40.0)
        b = kernels.extravasation_attempts(params, rng, 5, pool=40.0)
        np.testing.assert_array_equal(a["gid"], b["gid"])
        assert a["gid"].size in (8, 9)  # 40 * 0.2 = 8 (+ stochastic round)

    def test_zero_pool_no_attempts(self, params, rng):
        a = kernels.extravasation_attempts(params, rng, 0, pool=0.0)
        assert a["gid"].size == 0

    def test_needs_chemokine(self, params, block, rng):
        attempts = kernels.extravasation_attempts(params, rng, 0, pool=100.0)
        n = kernels.apply_extravasation(params, block, attempts)
        assert n == 0  # no signal anywhere
        assert block.tcell.sum() == 0

    def test_enters_at_signal(self, params, block, rng):
        block.chemokine[block.interior] = 1.0
        attempts = kernels.extravasation_attempts(params, rng, 0, pool=100.0)
        n = kernels.apply_extravasation(params, block, attempts)
        assert n > 0
        assert block.tcell.sum() == n
        assert (block.tcell_tissue_time[block.tcell == 1] >= 1).all()

    def test_no_double_occupancy(self, params, rng):
        """Many attempts on a tiny grid: occupancy stays 0/1."""
        p = SimCovParams.fast_test(dim=(3, 3))
        spec = GridSpec(p.dim)
        blk = VoxelBlock(spec, spec.domain)
        blk.chemokine[blk.interior] = 1.0
        attempts = kernels.extravasation_attempts(p, rng, 0, pool=500.0)
        n = kernels.apply_extravasation(p, blk, attempts)
        assert blk.tcell.max() <= 1
        assert n == blk.tcell.sum() <= 9

    @pytest.mark.parametrize("dim, lo, hi", [
        ((12, 12), (5, 3), (11, 9)),
        ((7, 6, 5), (2, 0, 1), (6, 4, 5)),
    ])
    def test_subdomain_block_takes_its_own_attempts(self, rng, dim, lo, hi):
        """A block whose ``origin`` is not ``-ghost`` (what pgas, gpu and
        dist pass) maps attempt gids to its own padded coordinates: its
        interior ends up as the same box of a whole-domain block, also when
        the lookup is narrowed to a region of it."""
        p = SimCovParams.fast_test(dim=dim)
        spec = GridSpec(p.dim)
        whole = VoxelBlock(spec, spec.domain)
        signal = np.random.default_rng(3).random(spec.shape)
        whole.chemokine[whole.interior] = signal
        box = tuple(slice(a, b) for a, b in zip(lo, hi))
        attempts = kernels.extravasation_attempts(p, rng, 0, pool=2000.0)
        total = kernels.apply_extravasation(p, whole, attempts)
        assert total > 0

        def sub_block():
            sub = VoxelBlock(spec, Box(lo, hi))
            sub.chemokine[sub.interior] = signal[box]
            return sub

        sub = sub_block()
        n = kernels.apply_extravasation(p, sub, attempts)
        for name in ("tcell", "tcell_tissue_time", "tcell_bound_time"):
            np.testing.assert_array_equal(
                getattr(sub, name)[sub.interior],
                getattr(whole, name)[whole.interior][box],
            )
        assert n == sub.tcell.sum() == whole.tcell[whole.interior][box].sum()
        assert 0 < n < total
        # Narrowed to the first two rows of the block's interior.
        rows = sub_block()
        g = rows.ghost
        region = (slice(g, g + 2),) + rows.interior[1:]
        n_rows = kernels.apply_extravasation(p, rows, attempts, region=region)
        np.testing.assert_array_equal(rows.tcell[region], sub.tcell[region])
        assert n_rows == rows.tcell.sum() == sub.tcell[region].sum() > 0


def loop_apply_extravasation(params, block, attempts, region=None):
    """``apply_extravasation`` as the per-attempt loop it was before the
    solo and batched spellings merged: attempts in attempt order, each
    seeing the occupancy the ones before it left."""
    gids = attempts["gid"]
    sl = block.interior if region is None else region
    at = block.spec.unravel(gids) - np.asarray(block.origin, dtype=np.int64)
    lo = np.array([s.start for s in sl], dtype=np.int64)
    hi = np.array([s.stop for s in sl], dtype=np.int64)
    successes = 0
    for i in np.nonzero(((at >= lo) & (at < hi)).all(axis=1))[0]:
        c_idx = tuple(at[i])
        if block.tcell[c_idx] != 0:
            continue
        c = block.chemokine[c_idx]
        if c < params.min_chemokine:
            continue
        if attempts["accept_u"][i] < c:
            block.tcell[c_idx] = 1
            block.tcell_tissue_time[c_idx] = attempts["life"][i]
            block.tcell_bound_time[c_idx] = 0
            successes += 1
    return successes


@st.composite
def extravasation_cases(draw):
    """(params, block, attempts, region): a world small enough that
    attempts repeat on a voxel, with signal and rolls drawn from a palette
    that puts values exactly on both comparisons' boundaries."""
    dim = draw(st.sampled_from([(6, 5), (9, 4), (4, 3, 3)]))
    batch = draw(st.sampled_from([None, 1, 2, 3]))
    base = SimCovParams.fast_test(dim=dim)
    floors = draw(
        st.lists(
            st.sampled_from([base.min_chemokine, 0.25, 0.5]),
            min_size=batch or 1, max_size=batch or 1,
        )
    )
    members = [base.with_(min_chemokine=floor) for floor in floors]
    params = members[0] if batch is None else ParamsStack(members)
    spec = GridSpec(dim)
    # The whole domain, or a sub-box of it whose ghosts are in-domain voxels.
    lo = tuple(draw(st.integers(0, s - 2)) for s in dim)
    hi = tuple(draw(st.integers(a + 1, s)) for a, s in zip(lo, dim))
    owned = draw(st.sampled_from([spec.domain, Box(lo, hi)]))
    block = (
        VoxelBlock(spec, owned) if batch is None
        else EnsembleBlock(spec, owned, batch)
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    palette = np.array(
        [0.0, 1.0, 0.75, *floors, *(np.nextafter(f, 0.0) for f in floors)]
    )
    block.chemokine[...] = rng.choice(palette, size=block.shape)
    occupied = rng.random(block.shape) < draw(st.sampled_from([0.0, 0.3]))
    block.tcell[occupied] = 1
    block.tcell_tissue_time[occupied] = 7
    block.tcell_bound_time[...] = rng.integers(0, 3, size=block.shape)
    n = draw(st.sampled_from([0, 1, 12, 60]))
    attempts = {
        "gid": rng.integers(0, spec.num_voxels, size=n),
        "accept_u": rng.choice(np.append(palette, 0.6), size=n),
        "life": rng.integers(1, 100, size=n),
    }
    if batch is not None:
        attempts["member"] = np.sort(rng.integers(0, batch, size=n))
    region = None
    if draw(st.booleans()):
        # Any sub-box of the interior, empty ones included.
        region = tuple(
            slice(a, draw(st.integers(a, s.stop)))
            for s in block.interior[-len(dim):]
            for a in [draw(st.integers(s.start, s.stop))]
        )
        if batch is not None:
            region = (slice(0, batch),) + region
    return params, block, attempts, region


class TestExtravasationReference:
    """The one vectorised, region-aware ``apply_extravasation`` is the
    per-attempt loop: every T-cell field and the returned count, bitwise,
    on solo and batched blocks.

    Mutation-checked: taking the *last* accepting attempt per voxel
    instead of the first, and ``accept_u <= signal`` for ``<``, each fail
    within the first few dozen examples."""

    @given(case=extravasation_cases())
    @settings(max_examples=300, deadline=None)
    def test_vectorised_kernel_is_the_attempt_loop(self, case):
        params, block, attempts, region = case
        batch = getattr(block, "batch", None)
        twin = (
            VoxelBlock(block.spec, block.owned) if batch is None
            else EnsembleBlock(block.spec, block.owned, batch)
        )
        for name in block.FIELD_DTYPES:
            getattr(twin, name)[...] = getattr(block, name)
        if batch is None:
            want = loop_apply_extravasation(params, twin, attempts, region)
        else:
            want = np.array([
                loop_apply_extravasation(
                    params.member(b), twin.member_view(b),
                    {k: v[attempts["member"] == b] for k, v in attempts.items()},
                    None if region is None else region[1:],
                )
                for b in range(batch)
            ])
        got = kernels.apply_extravasation(params, block, attempts, region)
        assert np.array_equal(got, want) and np.shape(got) == np.shape(want)
        for name in block.FIELD_DTYPES:
            np.testing.assert_array_equal(
                getattr(block, name), getattr(twin, name), err_msg=name
            )

    @pytest.mark.parametrize("batch", [None, 3])
    def test_attempts_that_all_miss_the_region_apply_nothing(self, batch):
        """No attempt lands in the region: the kernel returns the zero
        tally at once (no ``np.unique``, no scatter) and leaves the block
        as the loop does."""
        dim = (12, 10)
        spec = GridSpec(dim)
        block = VoxelBlock(spec, spec.domain) if batch is None else EnsembleBlock(
            spec, spec.domain, batch
        )
        block.chemokine[...] = 1.0
        region = (slice(2, 5), slice(3, 6))  # interior rows 1..3, columns 2..4
        gids = np.array([0, 9, 5 * 10 + 7, 11 * 10 + 9], dtype=np.int64)
        attempts = {"gid": gids, "accept_u": np.zeros(4), "life": np.full(4, 9)}
        if batch is not None:
            attempts["member"] = np.array([0, 1, 1, 2])
            region = (slice(0, batch),) + region
        params = SimCovParams.fast_test(dim=dim)
        before = {name: getattr(block, name).copy() for name in block.FIELD_DTYPES}
        with mock.patch.object(np, "unique", side_effect=AssertionError("np.unique")):
            got = kernels.apply_extravasation(params, block, attempts, region)
        want = 0 if batch is None else np.zeros(batch, dtype=np.int64)
        assert np.array_equal(got, want) and np.shape(got) == np.shape(want)
        for name, saved in before.items():
            assert np.array_equal(getattr(block, name), saved), name
        # The same attempts over the whole interior do enter.
        assert np.sum(kernels.apply_extravasation(params, block, attempts)) == 4
