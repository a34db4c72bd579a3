"""Ablation: the CPU active-list/active-region optimization (§3.2).

SIMCoV-CPU 'reduces the computational work on inactive regions by
tracking the active voxels in an active list'.  This bench counts the
work the active region saves on sparse workloads — per-rank active lists
over one traced run against full-domain processing — and verifies the
modeled CPU step time responds accordingly.
"""

import pytest

from repro.core.params import SimCovParams
from repro.grid.decomposition import Decomposition
from repro.grid.spec import GridSpec
from repro.perf.costs import cpu_step_seconds
from repro.perf.machine import PERLMUTTER
from repro.perf.work import cpu_step_work
from repro.perf.workload import WorkloadTrace


def cpu_run(p, seed=8):
    trace = WorkloadTrace.record(p, seed=seed)
    return cpu_step_work(trace, Decomposition.blocks(GridSpec(p.dim), 4))


@pytest.fixture(scope="module")
def sparse_run():
    p = SimCovParams.fast_test(dim=(64, 64), num_infections=1, num_steps=80)
    return p, cpu_run(p)


def test_active_region_bench(benchmark):
    p = SimCovParams.fast_test(dim=(32, 32), num_infections=1, num_steps=10)
    work = benchmark.pedantic(lambda: cpu_run(p), rounds=1, iterations=1)
    assert len(work) == 10


def test_tracked_work_far_below_full_domain(sparse_run):
    p, work = sparse_run
    total_voxels = p.num_voxels
    tracked = [sum(w["active_per_rank"]) for w in work]
    full = total_voxels * len(tracked)
    saved = 1 - sum(tracked) / full
    print(f"\nActive-region ablation: processed {sum(tracked)} of {full} "
          f"voxel-steps ({saved:.0%} skipped)")
    # A sparse epidemic leaves much of the lung quiet until late in the
    # run (this 80-step window ends near saturation, so ~half is saved;
    # earlier windows save far more, as the early-step counts show).
    assert saved > 0.4
    assert tracked[0] < 0.02 * p.num_voxels  # early steps nearly free


def test_modeled_time_tracks_activity(sparse_run):
    """Step cost grows as the infection spreads — the active region is
    doing the pricing, not the domain size."""
    _, work = sparse_run
    early = cpu_step_seconds(
        PERLMUTTER, work[2]["active_per_rank"], work[2]["comm"], 4,
    )
    late = cpu_step_seconds(
        PERLMUTTER, work[-1]["active_per_rank"], work[-1]["comm"], 4,
    )
    assert late > early


def test_full_domain_is_upper_bound(sparse_run):
    p, work = sparse_run
    for w in work:
        for count in w["active_per_rank"]:
            assert count <= p.num_voxels / 4 + 1


def test_dense_workload_converges_to_full_domain():
    """At saturation the active region approaches the whole domain — the
    regime where Fig 8 shows raw GPU throughput winning."""
    p = SimCovParams.fast_test(dim=(32, 32), num_infections=16, num_steps=60)
    final = sum(cpu_run(p)[-1]["active_per_rank"])
    assert final > 0.9 * p.num_voxels
