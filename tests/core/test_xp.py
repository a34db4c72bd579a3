"""Tests for the array-module (``xp``) plug-in layer."""

import numpy as np
import pytest

from repro.core.xp import NUMPY, available_modules, get_array_module


class TestSelection:
    def test_numpy_always_available(self):
        assert "numpy" in available_modules()

    def test_default_is_numpy_singleton(self):
        assert get_array_module() is NUMPY
        assert get_array_module("numpy") is NUMPY
        assert get_array_module(None) is NUMPY

    def test_instance_passes_through(self):
        assert get_array_module(NUMPY) is NUMPY

    def test_auto_resolves_to_something_available(self):
        xp = get_array_module("auto")
        assert xp.name in available_modules()

    def test_unknown_name_lists_known(self):
        with pytest.raises(ValueError, match="numpy"):
            get_array_module("tensorflow")

    def test_missing_optional_module_raises_cleanly(self):
        for name in ("cupy", "torch"):
            if name in available_modules():
                continue
            with pytest.raises(ModuleNotFoundError, match="available"):
                get_array_module(name)


class TestNumpyAdapter:
    def test_transparent_delegation(self):
        arr = NUMPY.zeros((3, 3), dtype=np.float64)
        assert isinstance(arr, np.ndarray)
        assert NUMPY.maximum(arr, 1.0).max() == 1.0

    def test_spelling_helpers(self):
        arr = np.arange(4, dtype=np.int64)
        assert NUMPY.astype(arr, np.float64).dtype == np.float64
        copied = NUMPY.copy(arr)
        copied[0] = 99
        assert arr[0] == 0
        assert NUMPY.asnumpy(arr) is not None
        assert NUMPY.is_native(arr)
        assert not NUMPY.is_native([1, 2, 3])

    def test_repr_names_module(self):
        assert "numpy" in repr(NUMPY)

    def test_maximum_at_counts_every_duplicate(self):
        """An atomic max, not a buffered ``arr[idx] = max(arr[idx], v)``
        (where the last write to a repeated index would win)."""
        grid = np.zeros((3, 4), dtype=np.uint64)
        grid[1, 1] = 7
        idx = np.array([5, 2, 5, 2, 5, 11])
        vals = np.array([3, 9, 8, 4, 6, 1], dtype=np.uint64)
        NUMPY.maximum_at(grid.reshape(-1), idx, vals)
        expect = np.zeros(12, dtype=np.uint64)
        expect[[5, 2, 11]] = 8, 9, 1  # 8 beats the 7 already there
        assert np.array_equal(grid.reshape(-1), expect)


class TestOptionalModules:
    """Smoke for the GPU adapters — auto-skips when not installed."""

    def test_torch_adapter_runs_a_batched_step(self):
        pytest.importorskip("torch")
        from repro.core.params import SimCovParams
        from repro.engine.ensemble import EnsembleSimCov

        p = SimCovParams.fast_test(dim=(12, 12), num_infections=1)
        sim = EnsembleSimCov(p, seeds=[0, 1], array_module="torch")
        sim.run(5)
        assert len(sim.member_series[0]) == 5

    def test_cupy_adapter_runs_a_batched_step(self):
        pytest.importorskip("cupy")
        from repro.core.params import SimCovParams
        from repro.engine.ensemble import EnsembleSimCov

        p = SimCovParams.fast_test(dim=(12, 12), num_infections=1)
        sim = EnsembleSimCov(p, seeds=[0, 1], array_module="cupy")
        sim.run(5)
        assert len(sim.member_series[0]) == 5
