"""The §4.1 study and the §4.2 sweep run their trials as batches: each
trial's numbers, seed and position are those of its solo run."""

import itertools

import numpy as np

from repro.core.model import SequentialSimCov
from repro.core.params import SimCovParams
from repro.experiments.correctness import TRACKED_STATS, run_correctness
from repro.experiments.sweep import SweepResult, run_sweep


def test_correctness_families_equal_their_solo_runs():
    params = SimCovParams.fast_test(dim=(16, 16), num_infections=2, num_steps=40)
    result = run_correctness(params, trials=2, base_seed=100)
    families = {"cpu": (result.cpu_series, 100), "gpu": (result.gpu_series, 1100)}
    for name, (series, first_seed) in families.items():
        solo = [SequentialSimCov(params, seed=first_seed + t).run() for t in range(2)]
        np.testing.assert_array_equal(result.steps, solo[0].steps())
        for stat, _ in TRACKED_STATS:
            want = np.stack([ts.field(stat) for ts in solo])
            assert series[stat].dtype == want.dtype, (name, stat)
            np.testing.assert_array_equal(series[stat], want, err_msg=f"{name} {stat}")


def test_sweep_results_equal_their_solo_runs_in_order():
    """Two ``num_steps`` values make two batches whose members interleave
    in the factorial order; every result is its solo run's."""
    base = SimCovParams.fast_test(dim=(16, 16), num_infections=2, num_steps=30)
    grid = {
        "num_steps": [20, 30],
        "infectivity": [0.1, 0.8],
        "incubation_period": [2, 6],
    }
    trials, base_seed = 2, 3
    got = run_sweep(base, grid, trials=trials, base_seed=base_seed)
    names = sorted(grid)
    want = []
    for combo_idx, values in enumerate(itertools.product(*(grid[n] for n in names))):
        config = dict(zip(names, values))
        for trial in range(trials):
            seed = base_seed + combo_idx * 10_000 + trial
            solo = SequentialSimCov(base.with_(**config), seed=seed)
            solo.run()
            want.append(SweepResult.from_run(config, trial, seed, solo.series))
    assert len(got) == len(want) == 2 * 2 * 2 * trials
    for position, (g, w) in enumerate(zip(got, want)):
        assert g == w, position
