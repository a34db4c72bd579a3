"""Engine/backed tracing integration: phase spans and PhaseMetrics are
two records of the same clock reads, golden traces stay bitwise identical
with tracing on, and the off-by-default null tracer stays cheap."""

import time

import numpy as np
import pytest

from repro.core.model import SequentialSimCov
from repro.core.params import SimCovParams
from repro.telemetry import NULL_TRACER, RingBufferSink, Tracer

from tests.golden.test_golden_traces import (
    assert_exact,
    load_trace,
    make_params,
)

STATE_FIELDS = (
    "epi_state", "epi_timer", "virions", "chemokine",
    "tcell", "tcell_tissue_time", "tcell_bound_time",
)


def small_params(steps=10):
    return SimCovParams.fast_test(dim=(32, 32), num_steps=steps)


class TestEngineWiring:
    def test_default_is_null_tracer(self):
        sim = SequentialSimCov(small_params(), seed=1)
        assert sim.engine.tracer is NULL_TRACER
        assert sim.backend.tracer is NULL_TRACER

    def test_phase_spans_and_metrics_view(self):
        """The engine records a phase in its metrics and emits its span
        from the same ``(start, elapsed)``: the two surfaces agree."""
        ring = RingBufferSink()
        sim = SequentialSimCov(
            small_params(), seed=1, tracer=Tracer(sinks=[ring])
        )
        sim.run(5)
        phase_spans = ring.spans("phase")
        step_spans = ring.spans("step")
        assert len(step_spans) == 5
        assert len(phase_spans) == 5 * 7  # the single block's 7 kernels
        metrics = sim.engine.metrics
        executed = [e for e in phase_spans if not e.attrs.get("skipped")]
        assert sum(metrics.calls.values()) == len(executed)
        assert metrics.total_seconds() == pytest.approx(
            sum(e.dur for e in executed)
        )

    def test_metrics_do_not_depend_on_the_tracer(self):
        """One path from a phase's stopwatch to its counters: what was
        called and what was skipped reads the same traced and untraced."""
        plain = SequentialSimCov(small_params(), seed=1)
        traced = SequentialSimCov(
            small_params(), seed=1, tracer=Tracer(sinks=[RingBufferSink()])
        )
        for sim in (plain, traced):
            sim.run(9)  # crosses a sweep period: tile_sweep runs and skips
        assert traced.engine.metrics.calls == plain.engine.metrics.calls
        assert traced.engine.metrics.skips == plain.engine.metrics.skips
        assert traced.engine.metrics.skips["tile_sweep"] > 0
        assert set(traced.engine.metrics.seconds) == set(plain.engine.metrics.seconds)
        # ... and the engine hangs no sink of its own on the caller's tracer.
        assert len(traced.engine.tracer.sinks) == 1

    def test_gating_gauge_emitted_every_step(self):
        """Occupancy is the registry's gauge, set every step with tracing
        on; the trace itself carries spans only."""
        ring = RingBufferSink()
        sim = SequentialSimCov(
            small_params(), seed=1, tracer=Tracer(sinks=[ring])
        )
        gauge = sim.engine.registry.families()["simcov_active_voxels"]
        occupancy = []
        for _ in range(4):
            sim.step()
            occupancy.append(gauge.series[()].value)
        assert occupancy == [w["active_voxels"] for w in sim.step_work]
        assert {e.cat for e in ring.events} == {"phase", "step"}


class TestGoldenIdentityWithTracing:
    def test_sequential_golden_bitwise_with_tracing(self):
        config, golden = load_trace("trace_2d")
        sim = SequentialSimCov(
            make_params(config), seed=config["seed"],
            tracer=Tracer(sinks=[RingBufferSink()]),
        )
        sim.run(config["steps"])
        assert_exact(sim.series, golden, "trace_2d/traced")

    def test_traced_fields_match_untraced(self):
        params = small_params(steps=12)
        ref = SequentialSimCov(params, seed=3)
        ref.run(12)
        traced = SequentialSimCov(
            params, seed=3, tracer=Tracer(sinks=[RingBufferSink()])
        )
        traced.run(12)
        for name in STATE_FIELDS:
            np.testing.assert_array_equal(
                traced.gather_field(name), ref.gather_field(name), err_msg=name
            )


class TestOverheadSmoke:
    def test_null_tracer_overhead_within_budget(self):
        """Smoke-level bound: the default (null-tracer) run must not be
        measurably slower than the same run — the guard is one branch per
        phase.  A generous 1.5x budget keeps this robust to CI noise
        while still catching an accidentally-always-on tracer."""
        params = small_params(steps=30)

        def wall(tracer):
            sim = SequentialSimCov(params, seed=5, tracer=tracer)
            t0 = time.perf_counter()
            sim.run(30)
            return time.perf_counter() - t0

        wall(None)  # warm caches
        untraced = min(wall(None) for _ in range(3))
        traced = min(wall(Tracer(sinks=[RingBufferSink()])) for _ in range(3))
        # Real tracing may cost something, but must stay in smoke range.
        assert traced < untraced * 1.5 + 0.05
