"""Parameter sweeps and replicate campaigns (§4.2).

'A small number of GPUs can still greatly benefit small simulations ...
Such use cases include parameter sweeps and data fitting for small
simulations because they require many runs with varied configurations.'

This module runs factorial sweeps of SimCovParams fields with stochastic
replicates, collecting per-run summary statistics — the workflow SIMCoV
users run for model fitting (three key parameters were fit to patient
data in [25]).  The runs that share ``dim`` and ``num_steps`` step as one
batch, each member bitwise its solo run (DESIGN.md §4d).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from repro.core.params import SimCovParams
from repro.core.stats import TimeSeries
from repro.engine.ensemble import EnsembleSimCov


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
    def from_run(cls, config: dict, trial: int, seed: int, series: TimeSeries) -> "SweepResult":
        peak_step, peak = series.peak("virions_total")
        return cls(
            config=config,
            trial=trial,
            seed=seed,
            peak_virions=peak,
            peak_step=peak_step,
            peak_tcells=series.peak("tcells_tissue")[1],
            final_dead=series[-1].dead,
            total_extravasations=sum(s.extravasations for s in series),
        )


def run_sweep(
    base: SimCovParams,
    grid: dict[str, list],
    trials: int = 3,
    base_seed: int = 0,
) -> list[SweepResult]:
    """Run the full factorial sweep ``grid`` with ``trials`` replicates.

    ``grid`` maps SimCovParams field names to value lists; trial ``t`` of
    combination ``i`` (``itertools.product`` order over the sorted names)
    has seed ``base_seed + i * 10_000 + t``.  Results come in that order.
    """
    names = sorted(grid)
    batches: dict[tuple, list] = {}
    for combo_idx, values in enumerate(itertools.product(*(grid[n] for n in names))):
        config = dict(zip(names, values))
        params = base.with_(**config)
        # One batch per (dim, num_steps): the keys a ParamsStack holds uniform.
        batches.setdefault((params.dim, params.num_steps), []).extend(
            (combo_idx, config, trial, base_seed + combo_idx * 10_000 + trial, params)
            for trial in range(trials)
        )
    results = []
    for batch in batches.values():
        sim = EnsembleSimCov([p for *_, p in batch], seeds=[seed for *_, seed, _ in batch])
        sim.run()
        results += [
            (combo_idx, SweepResult.from_run(config, trial, seed, series))
            for (combo_idx, config, trial, seed, _), series in zip(batch, sim.member_series)
        ]
    # A stable sort by combination keeps each one's trials in order.
    return [result for _, result in sorted(results, key=lambda r: r[0])]


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
