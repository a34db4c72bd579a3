"""Fig 4: the optimization-breakdown profile (§3.4).

Regenerates the four-bar chart — Unoptimized / Fast Reduction / Memory
Tiling / Combined, each split into Update-Agents vs Reduce-Statistics
time — from the counted work of all four prototypes over one traced run.

Paper shape asserted: reductions dominate the unoptimized profile; each
optimization helps alone; tiling also improves reductions; combined wins.
"""

import pytest

from repro.core.params import SimCovParams
from repro.experiments.profiling import format_fig4, run_profiling
from repro.perf.ledger import GpuVariant


NUM_STEPS = 40


@pytest.fixture(scope="module")
def rows():
    params = SimCovParams.fast_test(
        dim=(64, 64), num_infections=1, num_steps=NUM_STEPS
    )
    return run_profiling(params, num_devices=2, seed=11)


def test_fig4_breakdown(benchmark, rows):
    params = SimCovParams.fast_test(dim=(48, 48), num_infections=1, num_steps=12)
    result = benchmark.pedantic(
        lambda: run_profiling(params, num_devices=2, seed=11),
        rounds=1, iterations=1,
    )
    assert len(result) == 4


def test_fig4_reductions_dominate_unoptimized(rows):
    print("\n" + format_fig4(rows))
    by = {r.variant: r for r in rows}
    unopt = by[GpuVariant.UNOPTIMIZED]
    assert unopt.reduce_seconds > unopt.update_seconds


def test_fig4_each_optimization_helps_alone(rows):
    by = {r.variant: r for r in rows}
    assert by[GpuVariant.FAST_REDUCTION].total_seconds < by[GpuVariant.UNOPTIMIZED].total_seconds
    assert by[GpuVariant.MEMORY_TILING].total_seconds < by[GpuVariant.UNOPTIMIZED].total_seconds


def test_fig4_combined_is_fastest(rows):
    by = {r.variant: r for r in rows}
    assert by[GpuVariant.COMBINED].total_seconds == min(
        r.total_seconds for r in rows
    )


def test_fig4_tiling_also_improves_reductions(rows):
    """'Memory tiling also improves the performance of reductions, likely
    due to the enhanced data locality' (§3.4)."""
    by = {r.variant: r for r in rows}
    assert (
        by[GpuVariant.MEMORY_TILING].reduce_seconds
        < by[GpuVariant.UNOPTIMIZED].reduce_seconds
    )


def test_fig4_optimizations_compose_independently(rows):
    """'The optimizations combine very effectively, which indicates that
    their speedups come from mostly independent effects' (§3.4)."""
    by = {r.variant: r for r in rows}
    unopt = by[GpuVariant.UNOPTIMIZED].total_seconds
    gain_fast = unopt / by[GpuVariant.FAST_REDUCTION].total_seconds
    gain_tile = unopt / by[GpuVariant.MEMORY_TILING].total_seconds
    gain_comb = unopt / by[GpuVariant.COMBINED].total_seconds
    # Combined gain approaches the product of individual gains
    # (within a factor reflecting the shared fixed costs).
    assert gain_comb > max(gain_fast, gain_tile)
    assert gain_comb > 0.3 * gain_fast * gain_tile


class TestEnginePhaseTimings:
    """The traced run's own per-phase hooks (its engine's phase_metrics)
    surface as ProfilingRow.phase_seconds / phase_calls."""

    def test_every_variant_reports_phase_timings(self, rows):
        for r in rows:
            assert r.phase_seconds, r.variant
            # Every mandatory kernel phase executed every step and accrued
            # wall time.
            for name in ("age_extravasate", "intents", "resolve",
                         "epithelial", "diffuse", "reduce"):
                assert r.phase_calls[name] == NUM_STEPS, (r.variant, name)
                assert r.phase_seconds[name] > 0.0, (r.variant, name)
