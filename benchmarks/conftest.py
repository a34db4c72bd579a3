"""Shared fixtures for the benchmark harness.

Each ``test_fig*``/``test_table*`` module regenerates one table or figure
of the paper (printed to the terminal; also exercised under
pytest-benchmark timing).  Benchmarks run on scaled-down workloads — see
EXPERIMENTS.md for the scaled-vs-paper mapping.
"""

import pytest

from repro.core.params import SimCovParams
from repro.testing import use_tier


@pytest.fixture(scope="session")
def fast_params():
    """The standard scaled benchmark workload."""
    return SimCovParams.fast_test(dim=(48, 48), num_infections=3, num_steps=120)


@pytest.fixture(scope="session")
def sparse_params():
    """A sparse workload where tiling/active-lists have work to skip."""
    return SimCovParams.fast_test(dim=(64, 64), num_infections=1, num_steps=60)


@pytest.fixture(params=["numpy", "native"], ids="tier={}".format)
def tier(request, monkeypatch):
    """One ledger row per tier of the per-voxel kernels and the counter
    hash (:func:`repro.testing.use_tier`)."""
    use_tier(request.param, monkeypatch)
    return request.param
