"""Fig 5 + Table 2: the correctness evaluation (§4.1).

The paper compares SIMCoV-CPU and SIMCoV-GPU over five trials of identical
parameters, showing (Fig 5) overlapping mean time-series with min/max
bands for virus count, tissue T cells and apoptotic epithelial cells, and
(Table 2) percent agreement of the peak statistics with per-implementation
standard deviations.

This reproduction runs the same protocol at reduced scale (the full
10,000^2 x 33,120-step runs are a supercomputer workload; see DESIGN.md
§2).  Because the paper's implementations used different PRNGs, trials use
*different seeds per implementation* here too — two seed families — so the
statistical comparison is meaningful.  Every decomposition computes the
single-block stepper's trace bit for bit (tests/dist, tests/golden), and so
does each member of a batch (DESIGN.md §4d): both families run as one batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.params import SimCovParams
from repro.core.stats import REDUCED_FIELDS
from repro.engine.ensemble import EnsembleSimCov

#: The Fig 5 panels / Table 2 rows: (stat field, display name).
TRACKED_STATS = (
    ("virions_total", "Virus"),
    ("tcells_tissue", "T cells"),
    ("apoptotic", "Apop. Epi. Cells"),
)

#: Paper Table 2 values, for side-by-side reporting.
PAPER_TABLE2 = {
    "Virus": {"agree_pct": 99.68, "cpu_std": 3.1e5, "gpu_std": 2.2e5},
    "T cells": {"agree_pct": 99.01, "cpu_std": 715.82, "gpu_std": 648.05},
    "Apop. Epi. Cells": {"agree_pct": 99.42, "cpu_std": 201.09, "gpu_std": 355.81},
}


@dataclass
class CorrectnessResult:
    """Fig 5 series + Table 2 rows."""

    steps: np.ndarray
    #: per stat: (trials, steps) arrays for each implementation.
    cpu_series: dict
    gpu_series: dict
    #: Table 2 rows: stat -> {agree_pct, cpu_std, gpu_std, ...}.
    table2: dict

    def fig5_bands(self, stat: str):
        """(cpu_mean, cpu_min, cpu_max, gpu_mean, gpu_min, gpu_max)."""
        c = self.cpu_series[stat]
        g = self.gpu_series[stat]
        return (
            c.mean(axis=0), c.min(axis=0), c.max(axis=0),
            g.mean(axis=0), g.min(axis=0), g.max(axis=0),
        )


def run_correctness(
    params: SimCovParams | None = None,
    trials: int = 5,
    base_seed: int = 100,
) -> CorrectnessResult:
    """Run the §4.1 protocol: ``trials`` runs of each implementation with
    per-trial seeds (``base_seed + t`` and ``base_seed + 1000 + t``), all
    stepped as one batch, compared statistically."""
    if params is None:
        params = SimCovParams.fast_test(
            dim=(64, 64), num_infections=4, num_steps=320
        )
    # Offset seeds: like the paper's PRNG-distinct implementations.
    seeds = [base_seed + family + t for family in (0, 1000) for t in range(trials)]
    arrays = EnsembleSimCov(params, seeds=seeds).run().to_arrays()
    # (members, REDUCED_FIELDS, steps): one member's run per row block.
    runs = np.ascontiguousarray(arrays["reduced"].transpose(1, 2, 0))
    cpu_series, gpu_series, table2 = {}, {}, {}
    for stat, display in TRACKED_STATS:
        column = runs[:, REDUCED_FIELDS.index(stat)]
        c = cpu_series[stat] = column[:trials]
        g = gpu_series[stat] = column[trials:]
        cpu_peaks = c.max(axis=1)
        gpu_peaks = g.max(axis=1)
        cpu_peak = float(cpu_peaks.mean())
        gpu_peak = float(gpu_peaks.mean())
        denom = max(abs(cpu_peak), abs(gpu_peak), 1e-12)
        agree = 100.0 * (1.0 - abs(cpu_peak - gpu_peak) / denom)
        table2[display] = {
            "agree_pct": agree,
            "cpu_peak": cpu_peak,
            "gpu_peak": gpu_peak,
            "cpu_std": float(cpu_peaks.std(ddof=1)) if trials > 1 else 0.0,
            "gpu_std": float(gpu_peaks.std(ddof=1)) if trials > 1 else 0.0,
        }
    return CorrectnessResult(arrays["step"], cpu_series, gpu_series, table2)


def format_table2(result: CorrectnessResult) -> str:
    """Render Table 2 with the paper's values alongside."""
    header = (
        f"{'Stat (Peak)':<18}{'Pct. Agree.':>12}{'CPU STD':>12}{'GPU STD':>12}"
        f"   | paper: {'agree':>7}{'cpu std':>10}{'gpu std':>10}"
    )
    lines = [header, "-" * len(header)]
    for _, display in TRACKED_STATS:
        row = result.table2[display]
        paper = PAPER_TABLE2[display]
        lines.append(
            f"{display:<18}{row['agree_pct']:>12.2f}{row['cpu_std']:>12.2f}"
            f"{row['gpu_std']:>12.2f}   |        {paper['agree_pct']:>7.2f}"
            f"{paper['cpu_std']:>10.3g}{paper['gpu_std']:>10.3g}"
        )
    return "\n".join(lines)
