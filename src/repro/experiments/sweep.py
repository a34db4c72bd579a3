"""Parameter sweeps and replicate campaigns (§4.2).

'A small number of GPUs can still greatly benefit small simulations ...
Such use cases include parameter sweeps and data fitting for small
simulations because they require many runs with varied configurations.'

This module runs factorial sweeps of SimCovParams fields with stochastic
replicates, collecting per-run summary statistics — the workflow SIMCoV
users run for model fitting (three key parameters were fit to patient
data in [25]).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.model import SequentialSimCov
from repro.core.params import SimCovParams


@dataclass(frozen=True)
class SweepResult:
    """One (configuration, trial) outcome."""

    config: dict
    trial: int
    seed: int
    peak_virions: float
    peak_step: int
    peak_tcells: float
    final_dead: float
    total_extravasations: int

    @classmethod
    def from_run(cls, config: dict, trial: int, seed: int, sim) -> "SweepResult":
        peak_step, peak = sim.series.peak("virions_total")
        return cls(
            config=config,
            trial=trial,
            seed=seed,
            peak_virions=peak,
            peak_step=peak_step,
            peak_tcells=sim.series.peak("tcells_tissue")[1],
            final_dead=sim.series[-1].dead,
            total_extravasations=sum(
                s.extravasations for s in sim.series
            ),
        )


def run_sweep(
    base: SimCovParams,
    grid: dict[str, list],
    trials: int = 3,
    base_seed: int = 0,
    make_sim: Callable[[SimCovParams, int], object] | None = None,
) -> list[SweepResult]:
    """Run the full factorial sweep ``grid`` with ``trials`` replicates.

    ``grid`` maps SimCovParams field names to value lists; every
    combination runs ``trials`` times with distinct seeds.  ``make_sim``
    lets callers swap the implementation (e.g. ``DistSimCov`` with a rank
    count) — the default is the sequential reference.
    """
    if make_sim is None:
        make_sim = lambda params, seed: SequentialSimCov(params, seed=seed)
    names = sorted(grid)
    results = []
    for combo_idx, values in enumerate(itertools.product(*(grid[n] for n in names))):
        config = dict(zip(names, values))
        params = base.with_(**config)
        for trial in range(trials):
            seed = base_seed + combo_idx * 10_000 + trial
            sim = make_sim(params, seed)
            sim.run()
            results.append(SweepResult.from_run(config, trial, seed, sim))
    return results


def summarize(results: list[SweepResult], field: str = "peak_virions") -> dict:
    """Per-configuration mean/std of one outcome field (fitting target)."""
    groups: dict[tuple, list[float]] = {}
    for r in results:
        key = tuple(sorted(r.config.items()))
        groups.setdefault(key, []).append(float(getattr(r, field)))
    return {
        key: {
            "mean": float(np.mean(vals)),
            "std": float(np.std(vals, ddof=1)) if len(vals) > 1 else 0.0,
            "n": len(vals),
        }
        for key, vals in groups.items()
    }


def best_fit(
    results: list[SweepResult],
    target: float,
    field: str = "peak_virions",
) -> tuple[dict, float]:
    """The configuration whose mean outcome is closest to ``target`` —
    the [25]-style calibration loop's selection step."""
    summary = summarize(results, field)
    best_key = min(summary, key=lambda k: abs(summary[k]["mean"] - target))
    return dict(best_key), summary[best_key]["mean"]
