"""Table 2: percent agreement of peak statistics (§4.1).

Regenerates the peak-agreement table (peak virus, peak tissue T cells,
peak apoptotic count: % agreement between implementations plus per-
implementation standard deviations over trials).

The paper reports >99% agreement at 10^8 voxels; at this benchmark's
reduced scale trial-to-trial variance is relatively larger, so the
asserted floor is 80% (the bitwise-equality integration tests subsume the
strong form of this claim).
"""

import pytest

from repro.core.params import SimCovParams
from repro.experiments.correctness import (
    PAPER_TABLE2,
    format_table2,
    run_correctness,
)


@pytest.fixture(scope="module")
def result():
    params = SimCovParams.fast_test(dim=(32, 32), num_infections=2,
                                    num_steps=200)
    return run_correctness(params, trials=4)


def test_table2_generation(benchmark):
    params = SimCovParams.fast_test(dim=(24, 24), num_infections=2,
                                    num_steps=80)
    out = benchmark.pedantic(
        lambda: run_correctness(params, trials=2),
        rounds=1, iterations=1,
    )
    assert set(out.table2) == set(PAPER_TABLE2)


def test_table2_agreement(result):
    print("\n" + format_table2(result))
    for name, row in result.table2.items():
        assert row["agree_pct"] > 80.0, f"{name}: {row['agree_pct']:.1f}%"


def test_table2_stds_are_comparable_between_impls(result):
    """Neither implementation is systematically noisier (paper's STDs are
    the same order for CPU and GPU)."""
    for row in result.table2.values():
        if row["cpu_std"] > 0 and row["gpu_std"] > 0:
            ratio = row["cpu_std"] / row["gpu_std"]
            assert 0.1 < ratio < 10.0


def test_table2_no_stat_varies_more_than_model_precision(result):
    """'No statistic was observed to vary more than one percent between the
    two simulations' — at our scale, peaks stay within 20%."""
    for row in result.table2.values():
        denom = max(abs(row["cpu_peak"]), 1e-9)
        assert abs(row["cpu_peak"] - row["gpu_peak"]) / denom < 0.2
