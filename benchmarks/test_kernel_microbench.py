"""Microbenchmarks of the hot kernels (host-side throughput).

These time the kernels this reproduction actually executes — useful for
tracking regressions in the reproduction itself (the modeled GPU times
come from the ledger, not from these wall-clocks).  The per-voxel kernels,
the T-cell agent kernels, the extravasation pass, the Poisson timers and
the counter hash have two tiers (numpy bodies,
and the compiled ones of ``repro.core.native``): their rows are recorded
once per tier, ``[tier=numpy|native]``, as ROADMAP item 3's ``kernels``
ledger.

A kernel that changes the state it runs on gets that state back before
every round (``benchmark.pedantic(setup=...)``): stepped at a fixed step
number on one world, ``epithelial_update`` has run every timer out within
~50 rounds, and the later rounds — and every benchmark sharing the world —
would time a dead tissue.
"""

import timeit

import numpy as np
import pytest

from repro.core import kernels, native
from repro.core.params import SimCovParams
from repro.core.state import EpiState, VoxelBlock
from repro.core.stats import region_counts, stats_vector
from repro.grid.spec import GridSpec
from repro.rng.streams import Stream, VoxelRNG
from repro.testing import use_tier


def busy_world(dim):
    """A busy mid-infection state on ``dim``: params, block, rng."""
    p = SimCovParams.fast_test(dim=dim, num_infections=8)
    spec = GridSpec(p.dim)
    block = VoxelBlock(spec, spec.domain)
    rng = np.random.default_rng(0)
    states = rng.choice(
        [EpiState.HEALTHY, EpiState.INCUBATING, EpiState.EXPRESSING,
         EpiState.DEAD],
        p=[0.5, 0.2, 0.2, 0.1],
        size=block.owned.shape,
    )
    block.epi_state[block.interior] = states
    block.epi_timer[block.interior] = rng.integers(
        1, 50, size=block.owned.shape
    ) * (states != EpiState.HEALTHY)
    block.virions[block.interior] = rng.random(block.owned.shape) * 0.5
    block.chemokine[block.interior] = rng.random(block.owned.shape) * 0.5
    tcells = rng.random(block.owned.shape) < 0.05
    block.tcell[block.interior] = tcells
    block.tcell_tissue_time[block.interior] = tcells * rng.integers(
        1, 100, size=block.owned.shape
    )
    return p, block, VoxelRNG(1)


@pytest.fixture(scope="module")
def world():
    """Shared by the benchmarks that only read it."""
    return busy_world((128, 128))


def test_bench_rng_words(benchmark):
    rng = VoxelRNG(0)
    keys = np.arange(128 * 128)
    out = benchmark(lambda: rng.words(Stream.TCELL_BID, 5, keys))
    assert out.shape == keys.shape


@pytest.mark.parametrize("mu_kind", ["scalar", "array4"])
@pytest.mark.parametrize("n", [1, 100, 100_000])
def test_bench_poisson_draw(benchmark, n, mu_kind):
    """ns per Poisson draw: the fixed cost of a call (n = 1), a typical
    per-step expiry batch (100) and a full-region draw (1e5); with one
    ``mu`` and with a ``ParamsStack``-style per-element ``mu`` of four
    distinct values (the model's ``fast_test`` periods)."""
    from repro.rng import distributions as dist

    words = VoxelRNG(3).words(Stream.EXPRESSING_PERIOD, 5, np.arange(n))
    mu = 40.0 if mu_kind == "scalar" else np.resize([8.0, 10.0, 40.0, 150.0], n)
    out = benchmark(lambda: dist.poisson(words, mu))
    assert out.shape == (n,) and out.dtype == np.int64 and out.min() >= 0
    benchmark.extra_info["draws"] = n
    if benchmark.stats:  # absent under --benchmark-disable
        benchmark.extra_info["ns_per_draw"] = benchmark.stats["mean"] * 1e9 / n


@pytest.mark.parametrize("n", [1, 1000, 100_000], ids="n={}".format)
def test_bench_counter_hash(benchmark, tier, n):
    """us per ``counter_hash`` call: at one key the fixed cost every draw
    pays before its first voxel (an int seed's prefix is folded in Python
    ints), at 1e5 the cost per key."""
    from repro.rng.philox import counter_hash

    keys = np.arange(n)
    out = benchmark(lambda: counter_hash(11, int(Stream.POOL_ROUND), 7, keys))
    assert out.shape == (n,) and out.dtype == np.uint64
    assert out[0] == counter_hash(np.array([11]), int(Stream.POOL_ROUND), 7, 0)[0]
    benchmark.extra_info.update(tier=tier, keys=n)
    if benchmark.stats:  # absent under --benchmark-disable
        benchmark.extra_info["us_per_call"] = benchmark.stats["mean"] * 1e6
        benchmark.extra_info["ns_per_key"] = benchmark.stats["mean"] * 1e9 / n


@pytest.mark.parametrize("batch", [1, 32, 256], ids="B={}".format)
def test_bench_member_prefixes(benchmark, batch):
    """us per ``EnsembleRNG.prefixes`` call once the stream's folds are
    kept: what every gathered draw of a batch pays before its first key,
    one vector fold of the step however many members."""
    from repro.rng.philox import fold_prefix
    from repro.rng.streams import EnsembleRNG

    seeds = np.arange(batch, dtype=np.int64) * 7919 - 2**62
    rng = EnsembleRNG(seeds)
    out = benchmark(lambda: rng.prefixes(Stream.TCELL_BID, 5))
    assert out.shape == (batch,) and out.dtype == np.uint64
    assert out[-1] == fold_prefix(int(seeds[-1]), Stream.TCELL_BID, 5)
    benchmark.extra_info["members"] = batch
    if benchmark.stats:  # absent under --benchmark-disable
        benchmark.extra_info["us_per_call"] = benchmark.stats["mean"] * 1e6


def _voxel_kernels(p, block, rng):
    """The per-voxel entry points as the single-block backend calls them,
    each over the whole interior at a fixed step."""
    region = block.interior
    scratch = np.zeros_like(block.virions), np.zeros_like(block.chemokine)

    def concentration():
        kernels.concentration_update(p, block, region, *scratch)
        kernels.concentration_commit(p, block, [region], *scratch, step=5)

    return {
        "epithelial_update": lambda: kernels.epithelial_update(p, rng, 5, block, region),
        "production_update": lambda: kernels.production_update(p, block, region, step=5),
        "concentration_update+commit": concentration,
        "tcell_age": lambda: kernels.tcell_age(block, region),
        "region_counts": lambda: region_counts(block, region),
    }


@pytest.mark.parametrize(
    "dim", [(192, 192), (48, 48, 32)], ids=lambda dim: "x".join(map(str, dim))
)
@pytest.mark.parametrize(
    "kernel", ["epithelial_update", "production_update",
               "concentration_update+commit", "tcell_age", "region_counts"],
)
def test_bench_voxel_kernel(benchmark, tier, kernel, dim):
    """ns per voxel of each per-voxel kernel, per tier, on ``dense_2d``'s
    and ``dense_3d``'s grids: the ``kernels`` ledger of ROADMAP item 3."""
    p, block, rng = busy_world(dim)
    start = {name: getattr(block, name).copy() for name in block.FIELD_DTYPES}

    def restore():
        for name, saved in start.items():
            getattr(block, name)[...] = saved

    out = benchmark.pedantic(_voxel_kernels(p, block, rng)[kernel], setup=restore, rounds=20)
    if kernel == "region_counts":
        assert np.array_equal(out, stats_vector(block)[:len(out)])
    else:  # the last round really ran on the restored state
        assert any(
            not np.array_equal(getattr(block, name), saved) for name, saved in start.items()
        )
    benchmark.extra_info.update(tier=tier, voxels=block.owned.size)
    if benchmark.stats:  # absent under --benchmark-disable
        benchmark.extra_info["ns_per_voxel"] = (
            benchmark.stats["mean"] * 1e9 / block.owned.size
        )


def _bound_calls(compiled):
    """Every entry point of the compiled tier as its callers make it, each
    over ``busy_world``'s whole 16 x 16 interior, once bound."""
    from repro.rng.philox import fold_prefix

    p, block, rng = busy_world((16, 16))
    region, intents = block.interior, kernels.IntentArrays(block.shape)
    sv, sc = np.zeros_like(block.virions), np.zeros_like(block.chemokine)
    raw, mask = np.zeros(block.shape, bool), np.zeros(block.shape, bool)
    box, tiles, found = np.zeros(6, np.int64), np.array([1, 1, 1, 0]), np.zeros(7, np.int64)
    prefix = np.array([fold_prefix(1, Stream.TCELL_TISSUE_LIFE, 5)], dtype=np.uint64)
    keys, cells = np.arange(4), np.flatnonzero(block.epi_state == EpiState.INCUBATING)[:4]
    attempts = kernels.extravasation_attempts(p, rng, 5, 0.0)
    calls = {
        "hash_keys": lambda: compiled.hash_keys(prefix, keys),
        "epithelial": lambda: compiled.epithelial(p, rng, 5, block, region),
        "production": lambda: compiled.production(p, block, region, 5),
        "diffuse": lambda: compiled.diffuse(p, block, region, sv, sc),
        "commit": lambda: compiled.commit(p, block, [region], sv, sc, 5),
        "tcell_age": lambda: compiled.tcell_age(block, region),
        "region_counts": lambda: compiled.region_counts(block, region),
        "tcell_intents": lambda: compiled.tcell_intents(rng, 5, block, intents, region),
        "compute_moves": lambda: compiled.compute_moves(block, intents, region),
        "resolve_binds": lambda: compiled.resolve_binds(p, block, intents, region),
        "activity": lambda: compiled.activity(block, [region], p.min_chemokine, raw, box),
        "sweep_window": lambda: compiled.sweep_window(block, region, raw, tiles, mask, found),
        "extravasate": lambda: compiled.extravasate(p, attempts, block, region, None),
        "retime": lambda: compiled.retime(rng, Stream.INCUBATION_PERIOD, 5, block, cells,
                                          p.incubation_period),
    }
    for call in calls.values():  # binds the block
        call()
    return calls


@pytest.mark.parametrize("entry", list(native._NARGS))
def test_bench_native_call_overhead(benchmark, monkeypatch, entry):
    """us per call of each compiled entry point on a 16 x 16 region, where
    the C body is a few hundred ns: what a launch costs once its block is
    bound (the ``kernels`` ledger's call-overhead row).  Bound: 3 us, held
    on the best of five timed runs of a thousand calls, which host noise
    only ever lengthens."""
    use_tier("native", monkeypatch)
    call = _bound_calls(native.tier())[entry]
    benchmark(call)
    best = min(timeit.repeat(call, number=1000, repeat=5)) / 1000
    benchmark.extra_info.update(entry=entry, us_per_call=best * 1e6)
    assert best <= 3e-6, f"{entry}: {best * 1e6:.2f} us a call"


def _agent_world(agents: int):
    """192 x 192 with ``agents`` unbound T cells at random voxels, one in
    ten of them on an expressing cell, so those (and their neighbours) bid
    for a bind and the rest for a move — ``ensemble_b32``'s late mix at
    10 000 (27 % of the voxels occupied), ``dense_3d``'s handful at 10."""
    p = SimCovParams.fast_test(dim=(192, 192), num_infections=1)
    spec = GridSpec(p.dim)
    block = VoxelBlock(spec, spec.domain)
    rs = np.random.default_rng(agents)
    interior = block.epi_state[block.interior]
    at = np.unravel_index(
        rs.choice(interior.size, agents, replace=False), interior.shape
    )
    interior[tuple(i[::10] for i in at)] = EpiState.EXPRESSING
    block.tcell[block.interior][at] = 1
    block.tcell_tissue_time[block.interior][at] = 100
    return p, block, VoxelRNG(1), kernels.IntentArrays(block.shape)


def _per_agent(benchmark, tier: str, agents: int) -> None:
    """The ``kernels`` ledger numbers of ROADMAP item 3, per tier: at 10
    agents ``us_per_call`` is the fixed cost of a call, at 10 000
    ``ns_per_agent`` is the marginal one."""
    benchmark.extra_info.update(tier=tier, agents=agents)
    if benchmark.stats:  # absent under --benchmark-disable
        benchmark.extra_info["us_per_call"] = benchmark.stats["mean"] * 1e6
        benchmark.extra_info["ns_per_agent"] = benchmark.stats["mean"] * 1e9 / agents


@pytest.mark.parametrize("agents", [10, 1000, 10000], ids="agents={}".format)
def test_bench_tcell_intents(benchmark, tier, agents):
    p, block, rng, intents = _agent_world(agents)

    def setup():
        intents.clear()

    benchmark.pedantic(
        lambda: kernels.tcell_intents(p, rng, 5, block, intents, block.interior),
        setup=setup, rounds=30,
    )
    placed = (intents.move_dir >= 0).sum() + (intents.bind_dir >= 0).sum()
    assert 0 < placed <= agents and (intents.bind_bid > 0).any()
    _per_agent(benchmark, tier, agents)


@pytest.mark.parametrize("agents", [10, 1000, 10000], ids="agents={}".format)
def test_bench_resolve(benchmark, tier, agents):
    """``compute_moves`` + ``resolve_binds`` against one round of intents:
    both only read the T-cell fields (``commit_moves`` is what moves the
    cells), so every round resolves the same bids; the binds a round
    applies turn their cells apoptotic, which ``setup`` undoes."""
    p, block, rng, intents = _agent_world(agents)
    kernels.tcell_intents(p, rng, 5, block, intents, block.interior)
    epi_state, epi_timer = block.epi_state.copy(), block.epi_timer.copy()

    def setup():
        block.epi_state[...] = epi_state
        block.epi_timer[...] = epi_timer
        block.tcell_bound_time[...] = 0

    def run():
        moves = kernels.compute_moves(block, intents, block.interior)
        return moves, kernels.resolve_binds(
            p, rng, 5, block, intents, block.interior
        )

    moves, bound = benchmark.pedantic(run, setup=setup, rounds=30)
    assert len(moves.arriving) == len(moves.moved_out) > 0
    assert bound == (block.epi_state == EpiState.APOPTOTIC).sum() > 0
    _per_agent(benchmark, tier, agents)


@pytest.mark.parametrize("attempts", [0, 10, 1000], ids="attempts={}".format)
def test_bench_apply_extravasation(benchmark, tier, attempts):
    """One step's extravasation on ``dense_2d``'s grid, per tier: a fresh attempt schedule
    each round, drawn and applied — by the numpy bodies, or by the compiled pass that draws
    each attempt only as far as it gets.  At 0 ``us_per_call`` is what every step before the
    T-cell response pays, at 10 what a typical step pays, at 1000 ``ns_per_attempt`` is the
    marginal cost.  An entry occupies its voxel, so the T-cell fields are restored before
    every round."""
    p, block, rng = busy_world((192, 192))
    pool = attempts / p.extravasate_fraction
    assert kernels.extravasation_attempts(p, rng, 5, pool).size in (attempts, attempts + 1)
    fields = ("tcell", "tcell_tissue_time", "tcell_bound_time")
    start = {name: getattr(block, name).copy() for name in fields}

    def restore():
        for name, saved in start.items():
            getattr(block, name)[...] = saved

    entered = benchmark.pedantic(
        lambda: kernels.apply_extravasation(
            p, block, kernels.extravasation_attempts(p, rng, 5, pool), block.interior),
        setup=restore, rounds=30,
    )
    assert entered == (block.tcell != start["tcell"]).sum() <= attempts + 1
    assert entered > 0 or attempts <= 10
    benchmark.extra_info.update(tier=tier, attempts=attempts)
    if benchmark.stats:  # absent under --benchmark-disable
        benchmark.extra_info["us_per_call"] = benchmark.stats["mean"] * 1e6
        if attempts:
            benchmark.extra_info["ns_per_attempt"] = (
                benchmark.stats["mean"] * 1e9 / attempts
            )


@pytest.mark.parametrize("cells", [10, 1000], ids="cells={}".format)
def test_bench_retime(benchmark, tier, cells):
    """Fresh Poisson timers for ``cells`` epithelial cells of ``dense_2d``'s grid, per tier:
    ``kernels._retime``, as a step's infections, expiries and binds call it."""
    p, block, rng = busy_world((192, 192))
    at = np.sort(np.random.default_rng(cells).choice(
        np.flatnonzero(block.epi_state == EpiState.INCUBATING), cells, replace=False))
    benchmark(kernels._retime, rng, Stream.EXPRESSING_PERIOD, 5, block, at,
              p.expressing_period)
    assert (block.epi_timer.reshape(-1)[at] >= 1).all()
    benchmark.extra_info.update(tier=tier, cells=cells)
    if benchmark.stats:  # absent under --benchmark-disable
        benchmark.extra_info["us_per_call"] = benchmark.stats["mean"] * 1e6


def test_bench_resolve_moves(benchmark, world):
    p, block, rng = world
    intents = kernels.IntentArrays(block.shape)
    kernels.tcell_intents(p, rng, 5, block, intents, block.interior)

    def run():
        return kernels.compute_moves(block, intents, block.interior)

    moves = benchmark(run)
    # Flat layout: one int64 padded-array index per winner.
    assert moves.arriving.ndim == moves.moved_out.ndim == 1
    assert moves.arriving.dtype == moves.moved_out.dtype == np.int64
    assert len(moves.arriving) == len(moves.moved_out) == len(moves.new_life) > 0
    assert (block.tcell.reshape(-1)[moves.arriving] == 0).all()


def test_bench_stats_vector(benchmark, world):
    _, block, _ = world
    vec = benchmark(lambda: stats_vector(block))
    assert vec.shape == (8,)


def test_bench_region_reducer(benchmark):
    """The region-limited ``reduce`` on a busy 128 x 128 world with a 10 %
    region, whose float fields are zero outside the region (the reducer's
    contract): six integer counts over the region plus the two float sums
    over the chunk-aligned band of its rows (DESIGN.md §4).  ``extra_info``
    carries the ledger number, ns per region voxel."""
    from repro.core.stats import RegionReducer

    _, block, _ = busy_world((128, 128))
    side = round((0.10 * block.owned.size) ** 0.5)  # 40 x 40 of 128 x 128
    region = (slice(20, 20 + side),) * 2
    for name in ("virions", "chemokine"):
        field = getattr(block, name)
        inside = field[region].copy()
        field[...] = 0.0
        field[region] = inside
    reducer = RegionReducer(block)
    vec = benchmark(lambda: reducer.reduce(region))
    assert np.array_equal(vec, stats_vector(block))
    benchmark.extra_info["region_voxels"] = side * side
    if benchmark.stats:  # absent under --benchmark-disable
        benchmark.extra_info["ns_per_region_voxel"] = (
            benchmark.stats["mean"] * 1e9 / (side * side)
        )


@pytest.mark.parametrize("support", ["band", "whole"], ids="support={}".format)
def test_bench_float_totals(benchmark, support):
    """us per virion + chemokine total pair on 1024 x 1024 (``focus_2d``'s
    layout, 8 rows per numpy reduction chunk) with the fields non-zero in a
    100 x 100 box: summed over the chunk-aligned band of its rows, or over
    the whole interior, the support of a first step, a restore or gating
    off.  Both give the whole-interior bits."""
    from repro.core.stats import float_totals

    spec = GridSpec((1024, 1024))
    block = VoxelBlock(spec, spec.domain)
    box = (slice(401, 501), slice(300, 400))
    rng = np.random.default_rng(0)
    block.virions[box] = rng.random((100, 100))
    block.chemokine[box] = rng.random((100, 100))
    region = box if support == "band" else block.interior
    out = benchmark(lambda: float_totals(block, region))
    assert np.array_equal(out, stats_vector(block)[-2:])
    if benchmark.stats:  # absent under --benchmark-disable
        benchmark.extra_info["us_per_pair"] = benchmark.stats["mean"] * 1e6


@pytest.mark.parametrize("fraction", [0.02, 0.08])
def test_bench_gate_sweep(benchmark, tier, fraction):
    """us per ``ActivityGate.sweep()`` on 1024 x 1024 with activity filling
    a 2 % or an 8 % region (``focus_2d``'s mean and its late shape), per
    tier of its two passes: the sweep examines that region and the ghost
    faces and dilates, reduces and counts on the window around what it
    found, not the block — a gate fresh from ``reset()`` examines
    everything and must arrive at the same mask."""
    from repro.engine.activity import ActivityGate

    spec = GridSpec((1024, 1024))
    block = VoxelBlock(spec, spec.domain)
    side = round((fraction * block.owned.size) ** 0.5) - 16  # less the tile buffer
    block.virions[400:400 + side, 300:300 + side] = 0.5
    gate = ActivityGate(block, 1e-6)
    gate.sweep()
    benchmark(gate.sweep)
    fresh = ActivityGate(block, 1e-6)
    fresh.sweep()
    assert gate.region() == fresh.region()
    assert np.array_equal(gate.mask, fresh.mask)
    benchmark.extra_info["region_fraction"] = gate.count / block.owned.size
    # Tile rounding moves the region a few percent off the target.
    assert abs(benchmark.extra_info["region_fraction"] / fraction - 1) < 0.2
    benchmark.extra_info["tier"] = tier
    if benchmark.stats:  # absent under --benchmark-disable
        benchmark.extra_info["us_per_sweep"] = benchmark.stats["mean"] * 1e6


@pytest.mark.parametrize(
    "dim,box", [((1024, 1024), None), ((1024, 1024), ((0, 0), (512, 1024))),
                ((48, 48, 32), None)],
    ids=["1024x1024", "rank-512x1024", "48x48x32"],
)
def test_bench_block_geometry(benchmark, dim, box):
    """ms to build a ``VoxelBlock``: ``focus_2d``'s domain, one ``dist_r2``
    rank's block (what every worker derives at start-up) and ``dense_3d``'s
    domain.  The geometry is one ``arange`` per axis broadcast into the ids
    and the in-domain mask; the seven zeroed fields are the rest."""
    from repro.grid.box import Box

    spec = GridSpec(dim)
    owned = spec.domain if box is None else Box(*box)
    block = benchmark(lambda: VoxelBlock(spec, owned))
    assert block.gid[(1,) * len(dim)] == spec.ravel(np.array(owned.lo))
    assert (block.gid[0] == -1).all()
    benchmark.extra_info["voxels"] = block.epi_state.size
    if benchmark.stats:  # absent under --benchmark-disable
        benchmark.extra_info["ms_per_block"] = benchmark.stats["mean"] * 1e3


def test_bench_first_step(benchmark):
    """ms of step 0 against ms of step 1 on 1024 x 1024 with 1 FOI
    (``focus_2d``'s shape).  Step 0 carries what a fresh or restored
    simulation pays once — the whole-block sweep of the stale gate and the
    reducer's one whole-domain count — and both steps then run their
    kernels on the seed's 3 x 3 tiles."""
    from time import perf_counter

    from repro.core.model import SequentialSimCov

    p = SimCovParams.fast_test(dim=(1024, 1024), num_infections=1, num_steps=4)

    def setup():
        return (SequentialSimCov(p, seed=11),), {}

    def first_two_steps(sim):
        marks = [perf_counter()]
        for _ in range(2):
            sim.step()
            marks.append(perf_counter())
        return sim, np.diff(marks) * 1e3

    sim, ms = benchmark.pedantic(first_two_steps, setup=setup, rounds=3)
    assert sim.gate.count <= 9 * 8 * 8 and not sim.gate.stale
    benchmark.extra_info["step0_ms"], benchmark.extra_info["step1_ms"] = ms


def test_bench_full_sequential_step(benchmark):
    p = SimCovParams.fast_test(dim=(96, 96), num_infections=8, num_steps=10)
    from repro.core.model import SequentialSimCov

    sim = SequentialSimCov(p, seed=2)
    benchmark.pedantic(sim.step, rounds=5, iterations=1)
    # pedantic runs its target once under --benchmark-disable.
    assert sim.step_num >= (5 if benchmark.enabled else 1)
