"""Tests for time-series persistence."""

import numpy as np
import pytest

from repro.core.model import SequentialSimCov
from repro.core.params import SimCovParams
from repro.io.timeseries import load_timeseries, save_timeseries


@pytest.fixture(scope="module")
def run():
    p = SimCovParams.fast_test(dim=(16, 16), num_infections=2, num_steps=40)
    sim = SequentialSimCov(p, seed=1)
    sim.run()
    return sim


class TestSaveLoad:
    def test_roundtrip(self, run, tmp_path):
        path = str(tmp_path / "stats.csv")
        save_timeseries(path, run.series)
        loaded = load_timeseries(path)
        assert len(loaded) == len(run.series)
        for name in ("virions_total", "healthy", "tcells_tissue"):
            np.testing.assert_allclose(
                loaded.field(name), run.series.field(name)
            )

    def test_loaded_peaks_match(self, run, tmp_path):
        path = str(tmp_path / "stats.csv")
        save_timeseries(path, run.series)
        loaded = load_timeseries(path)
        assert loaded.peak("virions_total") == run.series.peak("virions_total")

    def test_creates_directories(self, run, tmp_path):
        path = str(tmp_path / "a" / "b" / "stats.csv")
        save_timeseries(path, run.series)
        assert load_timeseries(path)[0].step == 0
