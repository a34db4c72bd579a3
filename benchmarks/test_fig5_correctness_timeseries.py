"""Fig 5: CPU-vs-GPU correctness time series (§4.1).

Regenerates the three panels — virus count, tissue T cells, apoptotic
epithelial cells — as mean curves with min/max bands over multiple trials
of each implementation, and asserts that the trajectories agree the way
the paper's Fig 5 curves overlap.
"""

import numpy as np
import pytest

from repro.core.params import SimCovParams
from repro.experiments.correctness import TRACKED_STATS, run_correctness
from repro.experiments.plotting import ascii_series


@pytest.fixture(scope="module")
def result():
    params = SimCovParams.fast_test(dim=(32, 32), num_infections=2,
                                    num_steps=300)
    return run_correctness(params, trials=3)


def test_fig5_generation(benchmark):
    params = SimCovParams.fast_test(dim=(24, 24), num_infections=2,
                                    num_steps=60)
    out = benchmark.pedantic(
        lambda: run_correctness(params, trials=2),
        rounds=1, iterations=1,
    )
    assert set(out.cpu_series) == {s for s, _ in TRACKED_STATS}


@pytest.mark.parametrize("stat,display", TRACKED_STATS)
def test_fig5_curves_track(result, stat, display):
    cm, cmin, cmax, gm, gmin, gmax = result.fig5_bands(stat)
    print("\n" + ascii_series(
        {"CPU": (result.steps, cm), "GPU": (result.steps, gm)},
        title=f"Fig 5 — {display}",
    ))
    if cm.max() > 0:
        # Mean trajectories are highly correlated (visually overlapping).
        assert np.corrcoef(cm, gm)[0, 1] > 0.9
        # GPU means stay within a widened CPU trial band most of the time.
        band = (cmax - cmin) + 0.2 * cm.max()
        inside = np.abs(gm - cm) <= band
        assert inside.mean() > 0.8


def test_fig5_virus_peaks_and_declines(result):
    cm, *_ = result.fig5_bands("virions_total")
    peak = int(np.argmax(cm))
    assert 0 < peak < len(cm) - 1
    assert cm[-1] < cm[peak]


def test_fig5_tcells_rise_after_delay(result):
    _, _, _, gm, _, _ = result.fig5_bands("tcells_tissue")
    assert gm[:50].max() == 0  # before the adaptive-response delay
    assert gm.max() > 0
