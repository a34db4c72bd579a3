"""Microbenchmarks of the hot kernels (host-side throughput).

These time the actual numpy kernels this reproduction executes — useful
for tracking regressions in the reproduction itself (the modeled GPU
times come from the ledger, not from these wall-clocks).
"""

import numpy as np
import pytest

from repro.core import kernels
from repro.core.params import SimCovParams
from repro.core.state import EpiState, VoxelBlock
from repro.diffusion.stencil import diffuse_global
from repro.grid.spec import GridSpec
from repro.rng.streams import Stream, VoxelRNG


@pytest.fixture(scope="module")
def world():
    p = SimCovParams.fast_test(dim=(128, 128), num_infections=8)
    spec = GridSpec(p.dim)
    block = VoxelBlock(spec, spec.domain)
    rng = np.random.default_rng(0)
    # A busy mid-infection state.
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
    block.tcell_tissue_time[block.interior] = tcells * 100
    return p, block, VoxelRNG(1)


def test_bench_rng_words(benchmark):
    rng = VoxelRNG(0)
    keys = np.arange(128 * 128)
    out = benchmark(lambda: rng.words(Stream.TCELL_BID, 5, keys))
    assert out.shape == keys.shape


def test_bench_diffusion(benchmark):
    rng = np.random.default_rng(0)
    field = rng.random((256, 256))
    out = benchmark(lambda: diffuse_global(field, 0.5))
    assert out.shape == field.shape


def test_bench_epithelial_update(benchmark, world):
    p, block, rng = world

    def run():
        kernels.epithelial_update(p, rng, 5, block, block.interior)

    benchmark(run)


def test_bench_tcell_intents(benchmark, world):
    p, block, rng = world
    intents = kernels.IntentArrays(block.shape)

    def run():
        intents.clear()
        kernels.tcell_intents(p, rng, 5, block, intents, block.interior)

    benchmark(run)


def test_bench_resolve_moves(benchmark, world):
    p, block, rng = world
    intents = kernels.IntentArrays(block.shape)
    kernels.tcell_intents(p, rng, 5, block, intents, block.interior)

    def run():
        return kernels.compute_moves(block, intents, block.interior)

    moves = benchmark(run)
    assert moves.arriving.shape == block.owned.shape


def test_bench_stats_vector(benchmark, world):
    from repro.core.stats import stats_vector

    _, block, _ = world
    vec = benchmark(lambda: stats_vector(block))
    assert vec.shape == (8,)


def test_bench_region_reducer(benchmark, world):
    """The region-limited ``reduce`` on the same world with a 10 % region:
    six integer counts over the region plus the two whole-interior float
    sums it cannot limit (DESIGN.md §4).  ``extra_info`` carries the
    ledger number, ns per region voxel."""
    from repro.core.stats import RegionReducer, stats_vector

    _, block, _ = world
    side = round((0.10 * block.owned.size) ** 0.5)  # 40 x 40 of 128 x 128
    region = (slice(20, 20 + side),) * 2
    reducer = RegionReducer(block)
    vec = benchmark(lambda: reducer.reduce(region))
    assert np.array_equal(vec, stats_vector(block))
    benchmark.extra_info["region_voxels"] = side * side
    if benchmark.stats:  # absent under --benchmark-disable
        benchmark.extra_info["ns_per_region_voxel"] = (
            benchmark.stats["mean"] * 1e9 / (side * side)
        )


def test_bench_full_sequential_step(benchmark):
    p = SimCovParams.fast_test(dim=(96, 96), num_infections=8, num_steps=10)
    from repro.core.model import SequentialSimCov

    sim = SequentialSimCov(p, seed=2)
    benchmark.pedantic(sim.step, rounds=5, iterations=1)
    assert sim.step_num >= 5
