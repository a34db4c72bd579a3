"""Ablation: single-exchange bid tiebreak vs two-wave intent/result RPCs.

§3.1: 'One solution ... is to first communicate the intent of every T
cell, perform a communication call, resolve tiebreaks ..., and then copy
the results back.  Fortunately, we can do better and avoid the second
communication call.'

This bench counts both protocols' traffic over one traced workload:

- the GPU's single max-merge exchange (halo copies of its ledger);
- the CPU baseline's two-wave RPC protocol (intent RPCs + result RPCs);

and a modeled 'GPU with a second wave' variant (one extra latency-bound
exchange per step), quantifying what the bid trick saves.  That the two
protocols resolve to the same moves and binds is
tests/properties/test_two_wave_tiebreak.py.
"""

import pytest

from repro.core.params import SimCovParams
from repro.grid.decomposition import Decomposition
from repro.grid.halo import HaloExchanger
from repro.grid.spec import GridSpec
from repro.perf.machine import PERLMUTTER
from repro.perf.work import cpu_step_work, gpu_step_work
from repro.perf.workload import WorkloadTrace

_US = 1e-6


@pytest.fixture(scope="module")
def workload():
    return SimCovParams.fast_test(dim=(48, 48), num_infections=4, num_steps=100)


def _decomp(params, n=4):
    return Decomposition.blocks(GridSpec(params.dim), n)


@pytest.fixture(scope="module")
def trace(workload):
    return WorkloadTrace.record(workload, seed=2)


def test_ablation_bench(benchmark, workload):
    params = workload.with_(num_steps=10)
    work = benchmark.pedantic(
        lambda: gpu_step_work(WorkloadTrace.record(params, seed=2), _decomp(params)),
        rounds=1, iterations=1,
    )
    assert len(work) == 10


def test_single_wave_beats_two_waves(workload, trace):
    """Adding a second exchange wave costs one more latency round per
    neighbor per step — the §3.1 saving, made concrete."""
    work = gpu_step_work(trace, _decomp(workload))
    m = PERLMUTTER
    one_wave = sum(
        w["ledger"].copies_intra * m.gpu_copy_lat_intra_us
        + w["ledger"].copies_inter * m.gpu_copy_lat_inter_us
        for w in work
    ) * _US
    # Wave B is 5 of the 11 per-step exchanges; a second tiebreak round
    # would replay those messages (results/acks), roughly doubling them.
    second_wave = one_wave * (5 / 11)
    assert second_wave > 0
    print(
        f"\nTiebreak comm (modeled): single-wave {one_wave:.4f}s, "
        f"+2nd wave {one_wave + second_wave:.4f}s "
        f"(+{100 * second_wave / one_wave:.0f}%) over {len(work)} steps"
    )
    assert (one_wave + second_wave) / one_wave > 1.25


def test_cpu_two_wave_rpc_traffic_counted(workload, trace):
    """The CPU baseline really pays intent + result RPCs (wave 2 exists)."""
    decomp = _decomp(workload)
    rpcs = sum(w["comm"]["rpcs"] for w in cpu_step_work(trace, decomp))
    # Boundary-strip waves alone are 3 RPCs per route per step; the
    # tiebreak protocol adds more whenever T cells cross boundaries.
    routes = len(HaloExchanger(decomp).replace_routes)
    strip_rpcs = routes * 3 * trace.num_steps
    assert rpcs > strip_rpcs
    print(f"\nCPU RPCs: {rpcs} total, {rpcs - strip_rpcs} tiebreak "
          f"(intent+result) over {trace.num_steps} steps")


def test_gpu_comm_volume_independent_of_tcell_count(workload):
    """The bid protocol's communication is fixed-size halo strips, not
    per-agent messages: its byte volume does not grow with T cells."""
    quiet = workload.with_(num_steps=20)
    busy = quiet.with_(tcell_generation_rate=200.0, tcell_initial_delay=0)
    volume = []
    for params in (quiet, busy):
        work = gpu_step_work(WorkloadTrace.record(params, seed=2), _decomp(params))
        volume.append(sum(
            w["ledger"].copy_bytes_intra + w["ledger"].copy_bytes_inter for w in work
        ))
    assert volume[0] == volume[1]
