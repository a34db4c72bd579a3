"""Ablation: atomics vs shared-memory tree reduction (§3.3).

'We find, perhaps counterintuitively, that it is considerably faster to
perform a reduction over every single voxel in the simulated space than
include atomics throughout a single simulation update.'

This bench compares the two strategies' modeled cost across array sizes
and block geometries, locating the regime boundaries.
"""

from repro.perf.machine import PERLMUTTER
from repro.perf.work import reduction_work

_NS = 1e-9


def modeled_seconds(work):
    m = PERLMUTTER
    return (
        work.reduce_tree_elems * m.gpu_reduce_elem_ns
        + work.atomic_ops * m.gpu_atomic_ns
        + work.atomic_conflicts * m.gpu_atomic_conflict_ns
    ) * _NS


def modeled_atomic_seconds(n):
    return modeled_seconds(reduction_work(n, tree=False))


def modeled_tree_seconds(n, block=256):
    return modeled_seconds(reduction_work(n, tree=True, block_size=block))


def test_reduction_bench(benchmark):
    work = benchmark(lambda: reduction_work(262_144, tree=True))
    assert work.atomic_ops == 262_144 // 256


def test_tree_beats_atomics_at_scale():
    print("\nReduction-strategy ablation (modeled seconds):")
    print(f"{'N':>12}{'atomics':>14}{'tree':>14}{'ratio':>8}")
    for n in (2**10, 2**14, 2**18, 2**22):
        a = modeled_atomic_seconds(n)
        t = modeled_tree_seconds(n)
        print(f"{n:>12}{a:>14.6f}{t:>14.6f}{a / t:>8.1f}")
        assert t < a  # tree wins at every simulation-relevant size


def test_advantage_large_at_every_size():
    """Both strategies are asymptotically linear in N, so the tree's
    advantage is a large, roughly constant factor — which is why the
    paper's full-space tree reduction wins at any simulation size."""
    ratios = [
        modeled_atomic_seconds(n) / modeled_tree_seconds(n)
        for n in (2**10, 2**14, 2**18, 2**22)
    ]
    assert min(ratios) > 50
    assert max(ratios) / min(ratios) < 1.5  # roughly constant


def test_block_size_tradeoff():
    """Larger blocks mean fewer global atomics: tree cost decreases
    monotonically with block size (the paper notes the *atomics* path gets
    worse with larger blocks/thread counts — the tree path does not)."""
    n = 2**20
    costs = [modeled_tree_seconds(n, b) for b in (64, 128, 256, 512, 1024)]
    assert all(a >= b for a, b in zip(costs, costs[1:]))
    # And the geometry choice moves cost far less than the strategy choice.
    assert costs[0] / costs[-1] < 5
    assert modeled_atomic_seconds(n) / costs[0] > 10
