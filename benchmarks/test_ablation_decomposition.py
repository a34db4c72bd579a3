"""Ablation: linear vs block domain decomposition (Fig 1B).

Block decomposition minimizes halo surface (communication volume); linear
decomposition has simpler neighbor topology but strictly more boundary.
Counted on one traced run's CPU / GPU communication and on the analytic
surface formula across rank counts.
"""

import pytest

from repro.core.params import SimCovParams
from repro.grid.decomposition import Decomposition, DecompositionKind
from repro.dist import DistSimCov
from repro.grid.spec import GridSpec
from repro.perf.work import cpu_step_work, gpu_step_work
from repro.perf.workload import WorkloadTrace


def total_surface(spec, nranks, kind):
    d = Decomposition.make(spec, nranks, kind)
    return sum(d.halo_surface_voxels(r) for r in range(nranks))


def test_decomposition_bench(benchmark):
    spec = GridSpec((4096, 4096))
    out = benchmark(lambda: total_surface(spec, 64, DecompositionKind.BLOCK))
    assert out > 0


@pytest.mark.parametrize("nranks", [4, 16, 64, 256])
def test_block_surface_smaller(nranks):
    spec = GridSpec((4096, 4096))
    lin = total_surface(spec, nranks, DecompositionKind.LINEAR)
    blk = total_surface(spec, nranks, DecompositionKind.BLOCK)
    print(f"\n{nranks} ranks: linear surface {lin}, block surface {blk}, "
          f"ratio {lin / blk:.2f}")
    assert blk < lin


def test_linear_gap_grows_with_ranks():
    spec = GridSpec((4096, 4096))
    r4 = total_surface(spec, 4, DecompositionKind.LINEAR) / total_surface(
        spec, 4, DecompositionKind.BLOCK
    )
    r64 = total_surface(spec, 64, DecompositionKind.LINEAR) / total_surface(
        spec, 64, DecompositionKind.BLOCK
    )
    assert r64 > r4


@pytest.fixture(scope="module")
def small_trace():
    p = SimCovParams.fast_test(dim=(32, 32), num_infections=2, num_steps=20)
    return p, WorkloadTrace.record(p, seed=1)


def _both(params, n=4):
    spec = GridSpec(params.dim)
    return [Decomposition.make(spec, n, kind)
            for kind in (DecompositionKind.BLOCK, DecompositionKind.LINEAR)]


def test_cpu_measured_rpc_bytes_follow_surface(small_trace):
    p, trace = small_trace
    blk, lin = (
        sum(w["comm"]["rpc_bytes"] for w in cpu_step_work(trace, d))
        for d in _both(p)
    )
    assert lin > blk


def test_gpu_measured_halo_bytes_follow_surface(small_trace):
    p, trace = small_trace
    blk, lin = (
        sum(w["ledger"].copy_bytes_intra + w["ledger"].copy_bytes_inter
            for w in gpu_step_work(trace, d))
        for d in _both(p)
    )
    assert lin > blk


def test_results_identical_across_decompositions():
    """Decomposition is a performance choice, never a semantic one."""
    import numpy as np

    p = SimCovParams.fast_test(dim=(32, 32), num_infections=2, num_steps=30)
    fields = []
    for kind in (DecompositionKind.BLOCK, DecompositionKind.LINEAR):
        with DistSimCov(p, nranks=4, seed=1, decomposition=kind) as sim:
            sim.run(30)
            fields.append([sim.gather_field(f) for f in ("epi_state", "tcell")])
    for blk, lin in zip(*fields):
        np.testing.assert_array_equal(blk, lin)
