"""Engine wiring: the step loop feeds the registry, and — the acceptance
bar for default-on metrics — simulation state is bitwise identical with
the registry enabled or disabled."""

import gc
import sys
import threading

import numpy as np
import pytest

from repro.core.model import SequentialSimCov
from repro.core.params import SimCovParams
from repro.obs.registry import MetricsRegistry, set_registry

FIELDS = ("epi_state", "epi_timer", "virions", "chemokine", "tcell")


@pytest.fixture
def params():
    return SimCovParams.fast_test(dim=(32, 32), num_infections=1,
                                  num_steps=6)


@pytest.fixture
def registry():
    reg = MetricsRegistry()
    prev = set_registry(reg)
    yield reg
    set_registry(prev)


class TestEngineWiring:
    def test_step_loop_feeds_registry(self, params, registry):
        sim = SequentialSimCov(params, seed=3)
        sim.run(6)
        fams = registry.families()
        steps = fams["simcov_steps_total"].series[()]
        assert steps.value == 6.0
        step_hist = fams["simcov_step_seconds"].series[()]
        assert step_hist.count == 6
        assert step_hist.sum > 0.0
        # Every scheduled phase has a labeled histogram with 6 observations.
        phase_fam = fams["simcov_phase_seconds"]
        names = {dict(key)["phase"] for key in phase_fam.series}
        assert names == {ph.name for ph in sim.engine.schedule}
        assert "diffuse" in names and "reduce" in names
        for inst in phase_fam.series.values():
            assert inst.count == 6
        # Active-voxel gauge carries the last step's live-set size.
        active = fams["simcov_active_voxels"].series[()]
        assert active.value == sim.step_work[-1]["active_voxels"]

    def test_gate_skips_counted(self, params, registry):
        sim = SequentialSimCov(params, seed=3)
        sim.run(6)
        skips = registry.families()["simcov_phase_skips_total"].series
        total_skips = sum(inst.value for inst in skips.values())
        assert total_skips == sum(sim.engine.metrics.skips.values())
        assert skips[(("phase", "tile_sweep"),)].value > 0

    def test_explicit_registry_overrides_global(self, params):
        mine = MetricsRegistry()
        sim = SequentialSimCov(params, seed=3)
        sim.engine.__class__(sim.engine.backend, registry=mine)
        assert "simcov_steps_total" in mine.families()


class TestOneTable:
    """The engine families are read from the engines' phase tables."""

    def test_engines_in_threads_sum_into_one_family(self, params, registry):
        """Engines stepping at once, as serve's worker slots do, while a
        scraper reads: every step lands once, and the total never falls,
        also as finished engines are collected and retired."""
        def work(seed):
            for _ in range(2):
                SequentialSimCov(params, seed=seed).run(6)

        seen, done = [], threading.Event()

        def scrape():
            while not done.is_set():
                fam = registry.families().get("simcov_steps_total")
                if fam is not None:
                    seen.append(fam.series[()].value)

        workers = [threading.Thread(target=work, args=(s,)) for s in (3, 4, 5)]
        reader = threading.Thread(target=scrape)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in (*workers, reader):
                t.start()
            for t in workers:
                t.join(timeout=60)
            done.set()
            reader.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in (*workers, reader))
        assert seen and seen == sorted(seen)
        fams = registry.families()
        assert fams["simcov_steps_total"].series[()].value == 36.0
        diffuse = fams["simcov_phase_seconds"].series[(("phase", "diffuse"),)]
        assert diffuse.count == 36

    def test_counts_outlive_the_engine(self, params, registry):
        sim = SequentialSimCov(params, seed=3)
        sim.run(6)
        before = registry.snapshot()
        del sim
        gc.collect()
        assert registry.snapshot() == before
        assert registry._tables == {}
        # A later engine adds to the retired counts.
        SequentialSimCov(params, seed=3).run(2)
        steps = registry.families()["simcov_steps_total"].series[()]
        assert steps.value == 8.0

    def test_disabled_registry_exposes_nothing(self, params):
        off = MetricsRegistry(enabled=False)
        sim = SequentialSimCov(params, seed=3)
        sim.engine.__class__(sim.engine.backend, registry=off).run(2)
        assert off.families() == {} and off.render_prometheus() == ""


class TestBitwiseInvariance:
    def test_state_identical_with_metrics_on_and_off(self, params):
        prev = set_registry(MetricsRegistry(enabled=True))
        try:
            on = SequentialSimCov(params, seed=11)
            on.run(6)
            set_registry(MetricsRegistry(enabled=False))
            off = SequentialSimCov(params, seed=11)
            off.run(6)
        finally:
            set_registry(prev)
        for name in FIELDS:
            np.testing.assert_array_equal(
                getattr(on.block, name), getattr(off.block, name),
                err_msg=f"field {name} diverged with metrics toggled",
            )
        assert len(on.series) == len(off.series)
        assert all(on.series[i] == off.series[i]
                   for i in range(len(on.series)))
