"""Ablation: memory-tile size and sweep period (§3.2).

Tile size trades three costs: small tiles track activity tightly (fewer
wasted voxels) but sweep often (period <= tile side) and pin more
boundary area; large tiles sweep rarely but activate coarsely.  This
bench counts the tiled implementation's work across tile sizes over one
traced sparse workload and reports processed-voxel totals and modeled
time.
"""

import pytest

from repro.core.model import SequentialSimCov
from repro.core.params import SimCovParams
from repro.grid.decomposition import Decomposition
from repro.grid.spec import GridSpec
from repro.perf.costs import gpu_step_seconds
from repro.perf.machine import PERLMUTTER
from repro.perf.work import gpu_step_work
from repro.perf.workload import WorkloadTrace

TILE_SIDES = (4, 8, 16)


@pytest.fixture(scope="module")
def workload():
    return SimCovParams.fast_test(dim=(64, 64), num_infections=1, num_steps=60)


@pytest.fixture(scope="module")
def trace(workload):
    return WorkloadTrace.record(workload, seed=9)


def run_with_tile(trace, side):
    work = gpu_step_work(
        trace, Decomposition.blocks(GridSpec(trace.dim), 2), tile_shape=(side, side)
    )
    total = 0.0
    voxels = 0
    sweeps = 0
    for w in work:
        cost = gpu_step_seconds(
            PERLMUTTER, w["ledger"], w["active_per_device"], 2, True
        )
        total += cost.total_seconds
        voxels += w["ledger"].voxels.get("update_agents", 0)
        sweeps += w["ledger"].voxels.get("tile_sweep", 0)
    return work, total, voxels, sweeps


def sweep_steps(work):
    return [t for t, w in enumerate(work) if w["ledger"].launches["tile_sweep"]]


def test_tile_size_bench(benchmark, workload):
    params = workload.with_(num_steps=12)
    _, total, _, _ = benchmark.pedantic(
        lambda: run_with_tile(WorkloadTrace.record(params, seed=9), 8),
        rounds=1, iterations=1,
    )
    assert total > 0


def test_tile_size_tradeoff_table(trace):
    rows = []
    for side in TILE_SIDES:
        work, total, voxels, sweeps = run_with_tile(trace, side)
        steps = sweep_steps(work)
        period = steps[1] - steps[0] if len(steps) > 1 else len(work)
        rows.append((side, period, total, voxels, sweeps))
    print("\nTile-size ablation (64^2, 1 FOI, 60 steps, 2 devices):")
    print(f"{'tile':>6}{'period':>8}{'modeled s':>12}{'update vox':>12}{'sweep vox':>12}")
    for side, period, total, voxels, sweeps in rows:
        print(f"{side:>6}{period:>8}{total:>12.5f}{voxels:>12}{sweeps:>12}")
    # Smaller tiles process fewer update voxels (tighter tracking) ...
    assert rows[0][3] <= rows[-1][3]
    # ... but sweep more often (more voxels scanned by sweeps).
    assert rows[0][4] >= rows[-1][4]


def test_sweep_period_scales_with_tile(trace):
    """The sweep runs once per tile side: the largest sound period."""
    for side in TILE_SIDES:
        work, *_ = run_with_tile(trace, side)
        assert sweep_steps(work) == list(range(side - 1, len(work), side))


def test_all_tile_sizes_identical_results(workload):
    """Tile size is a performance knob only — results are bitwise equal
    (the §3.2 safety invariant, as the single-block stepper's gate runs
    it)."""
    import numpy as np

    reference = None
    for side in TILE_SIDES:
        sim = SequentialSimCov(workload, seed=9, tile_shape=(side, side))
        sim.run()
        state = sim.gather_field("epi_state")
        tcell = sim.gather_field("tcell")
        if reference is None:
            reference = (state, tcell)
        else:
            np.testing.assert_array_equal(reference[0], state)
            np.testing.assert_array_equal(reference[1], tcell)
