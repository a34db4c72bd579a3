"""Tests for the parameter-sweep/fitting utility."""

import pytest

from repro.core.params import SimCovParams
from repro.experiments.sweep import SweepResult, best_fit, run_sweep, summarize


@pytest.fixture(scope="module")
def results():
    base = SimCovParams.fast_test(dim=(24, 24), num_infections=2,
                                  num_steps=120)
    grid = {"infectivity": [0.02, 0.15], "num_infections": [1, 4]}
    return run_sweep(base, grid, trials=2, base_seed=5)


class TestRunSweep:
    def test_full_factorial_with_replicates(self, results):
        assert len(results) == 2 * 2 * 2
        configs = {tuple(sorted(r.config.items())) for r in results}
        assert len(configs) == 4

    def test_distinct_seeds(self, results):
        assert len({r.seed for r in results}) == len(results)

    def test_outcomes_responsive(self, results):
        """Higher infectivity must produce higher viral peaks."""
        lo = [r.peak_virions for r in results if r.config["infectivity"] == 0.02]
        hi = [r.peak_virions for r in results if r.config["infectivity"] == 0.15]
        assert max(lo) < min(hi) or sum(hi) / len(hi) > sum(lo) / len(lo)


class TestSummarize:
    def test_groups_and_moments(self, results):
        summary = summarize(results)
        assert len(summary) == 4
        for stats in summary.values():
            assert stats["n"] == 2
            assert stats["mean"] >= 0
            assert stats["std"] >= 0

    def test_single_trial_zero_std(self):
        r = SweepResult({"a": 1}, 0, 0, 5.0, 3, 1.0, 0.0, 0)
        assert summarize([r])[(("a", 1),)]["std"] == 0.0


class TestBestFit:
    def test_selects_closest_config(self, results):
        # Target the largest observed mean: the high-infectivity,
        # many-FOI configuration should win.
        summary = summarize(results)
        biggest = max(v["mean"] for v in summary.values())
        config, mean = best_fit(results, target=biggest)
        assert mean == biggest
        assert config["infectivity"] == 0.15

    def test_target_zero_selects_mildest(self, results):
        config, _ = best_fit(results, target=0.0)
        assert config["infectivity"] == 0.02
