"""Property test: activity-gated halo exchange never changes ghost data.

The dist workers skip pulling any band strip that neither its source
rank's published box (its writes to the voxels it owns) nor the reader's
own region (its provisional writes to its band) touches
(``strip_live``).  That is sound only if every kernel's writes are
confined to the region — then a skipped strip provably still holds the
owner's bytes from the previous pull.  This test drives exactly that
contract in process: random decompositions at 2 and 4 ranks, halos of
width 1 and of a dist rank's band (one step's reach), random per-rank
activity boxes (including idle ranks, and boxes reaching into the
reader's band), writers that respect their box, and a bitwise comparison
of gated-skip against always-exchange — plus the all-dead and all-live
edge cases explicitly.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.engine.sequential import step_reach
from repro.grid.box import Box
from repro.grid.decomposition import Decomposition, DecompositionKind
from repro.grid.halo import HaloExchanger, strip_live
from repro.grid.spec import GridSpec

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _build(shape, nranks, kind, ghost=1):
    spec = GridSpec(shape)
    decomp = Decomposition.make(spec, nranks, kind)
    return HaloExchanger(decomp, ghost=ghost)


def _sub_box(draw, box: Box) -> Box:
    lo, hi = [], []
    for axis in range(box.ndim):
        a = draw(st.integers(box.lo[axis], box.hi[axis] - 1))
        b = draw(st.integers(a + 1, box.hi[axis]))
        lo.append(a)
        hi.append(b)
    return Box(tuple(lo), tuple(hi))


@st.composite
def _scenario(draw):
    nranks = draw(st.sampled_from([2, 4]))
    kind = draw(st.sampled_from(list(DecompositionKind)))
    w = draw(st.integers(8, 20))
    h = draw(st.integers(8, 20))
    ex = _build((w, h), nranks, kind, draw(st.sampled_from([1, step_reach()])))
    regions = []
    for rank in range(ex.decomp.nranks):
        mode = draw(st.sampled_from(["idle", "full", "sub", "band"]))
        if mode == "idle":
            regions.append(None)
        elif mode == "full":
            regions.append(ex.decomp.boxes[rank])
        elif mode == "sub":
            regions.append(_sub_box(draw, ex.decomp.boxes[rank]))
        else:  # a region reaching into the rank's own band
            regions.append(_sub_box(draw, ex.extents[rank]))
    seed = draw(st.integers(0, 2**31 - 1))
    return ex, regions, seed


def _consistent_arrays(ex, rng):
    """Per-rank arrays whose ghosts agree with their owners — the state
    the protocol's dirty-flag invariant guarantees right after a pull."""
    global_arr = rng.uniform(1.0, 9.0, size=ex.decomp.spec.shape)
    return ex.scatter_global(global_arr)


def _write_in_regions(ex, arrays, regions, rng, dilate=0):
    """Each rank writes only inside its (optionally dilated) activity
    box — the confinement every gated kernel honors — its own voxels and
    its band alike."""
    for rank, region in enumerate(regions):
        if region is None:
            continue
        target = region if dilate == 0 else region.expand(dilate)
        target = target.intersect(ex.extents[rank])
        sl = ex.region_slices(rank, target)
        arrays[rank][sl] = rng.uniform(10.0, 99.0, size=arrays[rank][sl].shape)


def _published(ex, regions):
    """What each rank publishes: its region cropped to the voxels it owns."""
    out = []
    for region, owned in zip(regions, ex.decomp.boxes):
        box = None if region is None else region.intersect(owned)
        out.append(None if box is None or box.is_empty else box)
    return out


def _pull(ex, arrays, regions, gated):
    """One REPLACE wave over every rank's pull plan; gated skips strips
    that neither the source's published box nor the reader's own region
    touches.  Returns (pulled, skipped)."""
    published = _published(ex, regions)
    pulled = skipped = 0
    for rank in range(ex.decomp.nranks):
        plan = ex.pull_plan(rank)
        for route in plan.replace:
            if gated and not (
                strip_live(route.region, published[route.src])
                or strip_live(route.region, regions[rank])
            ):
                skipped += 1
                continue
            arrays[rank][plan.dst_slices(route)] = arrays[route.src][
                plan.src_slices(route)
            ]
            pulled += 1
    return pulled, skipped


def _assert_ranks_equal(gated, always):
    for r, (a, b) in enumerate(zip(gated, always)):
        np.testing.assert_array_equal(a, b, err_msg=f"rank {r}")


@SETTINGS
@given(_scenario())
def test_gated_replace_wave_bitwise_identical(case):
    ex, regions, seed = case
    rng = np.random.default_rng(seed)
    base = _consistent_arrays(ex, rng)
    _write_in_regions(ex, base, regions, rng)
    always = [a.copy() for a in base]
    gated = [a.copy() for a in base]
    _pull(ex, always, regions, gated=False)
    _pull(ex, gated, regions, gated=True)
    _assert_ranks_equal(gated, always)
    # Every strip — skipped ones included — holds its owner's bytes.
    truth = ex.gather_global(gated)
    for rank, ext in enumerate(ex.extents):
        np.testing.assert_array_equal(
            gated[rank][ex.region_slices(rank, ext)],
            truth[ext.slices_from((0,) * ext.ndim)], err_msg=f"rank {rank}",
        )


@SETTINGS
@given(_scenario())
def test_gated_max_wave_bitwise_identical(case):
    """The tiebreak variant: bids start cleared, writers scatter into
    their box dilated by one voxel, and gating judges liveness against
    the dilated box."""
    ex, regions, seed = case
    rng = np.random.default_rng(seed)
    arrays = [np.zeros(ex.local_shape(r)) for r in range(ex.decomp.nranks)]
    _write_in_regions(ex, arrays, regions, rng, dilate=1)
    always = [a.copy() for a in arrays]
    gated = [a.copy() for a in arrays]

    def merge(dst_arrays, use_gate):
        snaps = []
        for rank in range(ex.decomp.nranks):
            plan = ex.pull_plan(rank)
            for route in plan.max_merge:
                if use_gate and not strip_live(
                    route.region, regions[route.src], dilate=1
                ):
                    continue
                snaps.append(
                    (rank, plan.dst_slices(route),
                     dst_arrays[route.src][plan.src_slices(route)].copy())
                )
        for rank, dsl, payload in snaps:
            view = dst_arrays[rank][dsl]
            np.maximum(view, payload, out=view)

    merge(always, use_gate=False)
    merge(gated, use_gate=True)
    _assert_ranks_equal(gated, always)


def test_all_dead_skips_everything():
    """Every rank idle: the gated wave copies nothing at all, and that is
    still bitwise identical to always-exchange (nothing was written)."""
    for nranks in (2, 4):
        ex = _build((16, 12), nranks, DecompositionKind.BLOCK)
        regions = [None] * ex.decomp.nranks
        rng = np.random.default_rng(5)
        base = _consistent_arrays(ex, rng)
        always = [a.copy() for a in base]
        gated = [a.copy() for a in base]
        _pull(ex, always, regions, gated=False)
        pulled, skipped = _pull(ex, gated, regions, gated=True)
        assert pulled == 0 and skipped > 0
        _assert_ranks_equal(gated, always)


def test_all_live_skips_nothing():
    """Every rank fully active: gating must not skip a single strip."""
    for nranks in (2, 4):
        ex = _build((16, 12), nranks, DecompositionKind.BLOCK)
        regions = list(ex.decomp.boxes)
        rng = np.random.default_rng(6)
        base = _consistent_arrays(ex, rng)
        _write_in_regions(ex, base, regions, rng)
        always = [a.copy() for a in base]
        gated = [a.copy() for a in base]
        n_always, _ = _pull(ex, always, regions, gated=False)
        pulled, skipped = _pull(ex, gated, regions, gated=True)
        assert skipped == 0 and pulled == n_always > 0
        _assert_ranks_equal(gated, always)
