"""Golden-trace regression tests.

The committed ``trace_2d.json`` / ``trace_3d.json`` fixtures pin the
per-step time series of two canonical configurations (see
``regen_traces.py``).  The sequential driver (gated and force-ungated)
must reproduce them **exactly** — JSON round-trips float64 exactly, so
equality here is bitwise — and so must the ``cpu`` / ``gpu`` driver
names the CLI, serve and job specs accept, and the multi-process runtime
at every rank count (``tests/dist/test_dist_golden.py``).

If one of these fails after an intentional model change, regenerate with
``PYTHONPATH=src python tests/golden/regen_traces.py`` and commit the
new fixtures with the change.  A perf-only PR must never need to.
"""

import json
import pathlib

import pytest

from repro.core.model import SequentialSimCov
from repro.core.params import SimCovParams
from repro.engine.driver import build_driver

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent
TRACES = ("trace_2d", "trace_3d")


def load_trace(name):
    payload = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
    return payload["config"], payload["series"]


def make_params(config):
    return SimCovParams.fast_test(
        dim=tuple(config["dim"]), num_infections=config["num_infections"],
        num_steps=config["steps"],
    )


def assert_exact(series, golden, label):
    assert len(series) == len(golden), label
    for i, ref in enumerate(golden):
        rows = {f: getattr(series[i], f) for f in ref}
        assert rows == ref, f"{label}: step {i} diverged from golden trace"


@pytest.mark.parametrize("name", TRACES)
def test_sequential_reproduces_golden_trace(name):
    config, golden = load_trace(name)
    sim = SequentialSimCov(make_params(config), seed=config["seed"])
    sim.run(config["steps"])
    assert_exact(sim.series, golden, f"{name}/sequential-gated")


@pytest.mark.parametrize("name", TRACES)
def test_ungated_sequential_reproduces_golden_trace(name):
    config, golden = load_trace(name)
    sim = SequentialSimCov(make_params(config), seed=config["seed"],
                           active_gating=False)
    sim.run(config["steps"])
    assert_exact(sim.series, golden, f"{name}/sequential-ungated")


@pytest.mark.parametrize("name", TRACES)
def test_pgas_reproduces_golden_trace(name):
    config, golden = load_trace(name)
    sim = build_driver("cpu", make_params(config), nranks=3, seed=config["seed"])
    sim.run(config["steps"])
    assert_exact(sim.series, golden, f"{name}/cpu")


@pytest.mark.parametrize("name", TRACES)
def test_gpu_reproduces_golden_trace(name):
    config, golden = load_trace(name)
    sim = build_driver("gpu", make_params(config), nranks=4, seed=config["seed"])
    sim.run(config["steps"])
    assert_exact(sim.series, golden, f"{name}/gpu")
