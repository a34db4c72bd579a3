"""Distributed telemetry: per-rank shm rings drained by the coordinator,
barrier/halo visibility, and the ISSUE 4 acceptance test — golden traces
stay bitwise identical with tracing enabled at nranks 2."""

import numpy as np

from repro.dist import DistSimCov, dist_schedule
from repro.telemetry import RingBufferSink, Tracer

from tests.golden.test_golden_traces import (
    assert_exact,
    load_trace,
    make_params,
)

NRANKS = 2


def run_traced(config_name="trace_2d", steps=None):
    config, golden = load_trace(config_name)
    ring = RingBufferSink()
    tracer = Tracer(sinks=[ring])
    with DistSimCov(
        make_params(config), nranks=NRANKS, seed=config["seed"],
        tracer=tracer,
    ) as sim:
        sim.run(steps or config["steps"])
        dropped = sim.backend.runtime.telemetry_dropped()
        fields = {
            name: sim.gather_field(name)
            for name in ("epi_state", "virions", "chemokine", "tcell")
        }
    return config, golden, ring, dropped, fields, sim


class TestDistGoldenWithTracing:
    def test_golden_bitwise_identical_with_tracing(self):
        config, golden, ring, dropped, fields, sim = run_traced()
        assert_exact(sim.series, golden, f"trace_2d/dist-traced-{NRANKS}")
        assert dropped == [0] * NRANKS
        # And the full voxel state matches the untraced sequential run.
        from repro.core.model import SequentialSimCov

        ref = SequentialSimCov(make_params(config), seed=config["seed"])
        ref.run(config["steps"])
        for name, got in fields.items():
            np.testing.assert_array_equal(
                got, ref.gather_field(name), err_msg=name
            )


class TestDistEventStream:
    def test_per_rank_spans_and_counters(self):
        config, _, ring, dropped, _, _ = run_traced()
        steps = config["steps"]
        assert dropped == [0] * NRANKS

        # Every worker lane carries its phase spans; the coordinator
        # traces on the negative control-plane lane.
        phase = ring.spans("phase")
        worker_ranks = {e.rank for e in phase if e.rank >= 0}
        assert worker_ranks == set(range(NRANKS))
        assert {e.rank for e in phase if e.rank < 0} == {-1}
        per_rank = {
            r: [e for e in phase if e.rank == r] for r in range(NRANKS)
        }
        nphases = len(dist_schedule())
        for r, spans in per_rank.items():
            assert len(spans) == steps * nphases, f"rank {r}"
            assert all(e.attrs.get("backend", "dist") == "dist" for e in spans)

        # Barrier waits: the step barriers only, per rank.  No barrier
        # sits inside a step (the step-start barrier is the pull's exit
        # fence), so a phase name reappearing here would mean a fusion
        # regression.
        barriers = ring.spans("barrier")
        names = {e.name for e in barriers}
        assert names == {"step_start", "step_end"}
        assert {e.rank for e in barriers} == {-1, *range(NRANKS)}

        # Every ring record decodes to a phase, barrier or step span.
        workers = {e.cat for e in ring.events if e.rank >= 0}
        assert workers == {"phase", "barrier", "step"}

    def test_timestamps_cross_process_comparable(self):
        """Worker spans interleave on one monotonic timeline: every
        worker phase span falls inside the run's coordinator window."""
        _, _, ring, _, _, _ = run_traced()
        coord = [e for e in ring.spans() if e.rank == -1]
        lo = min(e.ts for e in coord)
        hi = max(e.ts + e.dur for e in coord)
        for ev in ring.spans("phase"):
            if ev.rank >= 0:
                assert lo - 1.0 <= ev.ts <= hi + 1.0

    def test_coordinator_metrics_not_double_counted(self):
        """Drained worker phase spans must not leak into the coordinator
        engine's own PhaseMetrics (the rank filter on the sink view)."""
        config, _, _, _, _, sim = run_traced()
        steps = config["steps"]
        # The coordinator executes only the reduce phase per step.
        assert sim.engine.metrics.calls["reduce"] == steps
        assert all(
            calls <= steps for calls in sim.engine.metrics.calls.values()
        )


class TestPipelinedTelemetry:
    """Inside a run the coordinator launches step n+1 from step n's
    reduce, after it drained the rings in the quiescent window."""

    STEPS = 50

    def test_rings_drain_in_quiescence_over_a_long_run(self):
        from repro.core.model import SequentialSimCov
        from repro.telemetry import format_report, summarize

        config, golden, ring, dropped, _, sim = run_traced(steps=self.STEPS)
        rows = [sim.series[i] for i in range(self.STEPS)]
        ref = SequentialSimCov(make_params(config), seed=config["seed"])
        ref.run(self.STEPS)
        assert rows == [ref.series[i] for i in range(self.STEPS)]
        assert_exact(rows[: len(golden)], golden, "trace_2d/dist-pipelined")
        assert dropped == [0] * NRANKS

        report = format_report(summarize(ring.events))
        assert "barrier waits:" in report
        per_rank = report.split("per-rank", 1)[1].splitlines()
        for rank in (-1, *range(NRANKS)):
            assert any(line.split()[:1] == [str(rank)] for line in per_rank)

    def test_launched_step_start_nests_in_the_previous_reduce(self):
        config, _, ring, _, _, _ = run_traced()
        steps = config["steps"]
        coord = [e for e in ring.spans() if e.rank == -1]
        reduces = {
            e.step: e for e in coord if e.cat == "phase" and e.name == "reduce"
        }
        starts = {e.step: e for e in coord if e.name == "step_start"}
        assert sorted(starts) == list(range(steps))
        # Step 0 starts before any reduce; the last step launches nothing.
        assert not starts[0].attrs["in_phase"]
        for n in range(1, steps):
            outer, inner = reduces[n - 1], starts[n]
            assert outer.ts <= inner.ts
            assert inner.ts + inner.dur <= outer.ts + outer.dur
            # Tagged so the report counts the wait as barrier, not busy.
            assert inner.attrs["in_phase"]


class TestGatedStripExchange:
    def test_one_focus_skips_most_strips(self):
        """With one focus of infection away from the seam, most halo
        strips are quiescent: the activity-gated exchange must skip more
        of them than it pulls (forcing ``strip_live`` to True fails
        this), and the run stays bitwise the sequential one."""
        from repro.core.model import SequentialSimCov
        from repro.core.params import SimCovParams

        params = SimCovParams.fast_test(
            dim=(96, 96), num_infections=1, num_steps=20
        )
        with DistSimCov(params, nranks=NRANKS, seed=0) as sim:
            sim.run(20)
            pulled, skipped = sim.backend.runtime.strip_counts()
            rows = [sim.series[i] for i in range(20)]
        assert 0 < pulled < skipped, (pulled, skipped)
        ref = SequentialSimCov(params, seed=0)
        ref.run(20)
        assert rows == [ref.series[i] for i in range(20)]


class TestImbalanceObservability:
    def test_imbalance_gauges_and_monitor(self):
        """Every step's ring drain is one timed span on the coordinator
        lane, inside that step's reduce, carrying the index the rolling
        monitor computed and the registry gauge holds."""
        config, _, ring, _, _, sim = run_traced()
        steps = config["steps"]
        drains = ring.spans("telemetry")
        assert [(e.name, e.rank, e.step) for e in drains] == [
            ("drain", -1, t) for t in range(steps)
        ]
        assert all(e.attrs["dropped"] == [0] * NRANKS for e in drains)
        assert min(e.attrs["imbalance"] for e in drains) >= 0.0
        reduces = {
            e.step: e for e in ring.spans("phase")
            if e.rank == -1 and e.name == "reduce"
        }
        for e in drains:
            outer = reduces[e.step]
            assert outer.ts <= e.ts <= e.ts + e.dur <= outer.ts + outer.dur
        monitor = sim.backend.imbalance
        summary = monitor.summary()
        assert (summary["nranks"], summary["steps_observed"]) == (NRANKS, steps)
        assert drains[-1].attrs["imbalance"] == monitor.last_index
        gauge = sim.engine.registry.families()["simcov_dist_imbalance_index"]
        assert gauge.series[()].value == monitor.last_index

    def test_ring_overflow_warns_with_runtime_counts(self, monkeypatch):
        """Rings too small for one step's spans overflow on a real run:
        the report warns once per rank with the runtime's own counts."""
        from repro.dist import backend
        from repro.telemetry import format_report, summarize

        monkeypatch.setattr(backend, "_TELEMETRY_RING_CAPACITY", 4)
        _, _, ring, dropped, _, _ = run_traced()
        assert min(dropped) > 0, dropped
        text = format_report(summarize(ring.events))
        assert [ln for ln in text.splitlines() if "DROPPED" in ln] == [
            f"WARNING: DROPPED {n} events (rank {r}) — telemetry ring "
            "overflowed; totals below undercount this rank"
            for r, n in enumerate(dropped)
        ]

    def test_registry_fed_by_dist_run(self):
        """The dist backend's counters/gauges land in a swapped-in
        registry: per-rank busy seconds, strip pulls, the imbalance
        gauge."""
        from repro.obs.registry import MetricsRegistry, set_registry

        config, _ = load_trace("trace_2d")
        reg = MetricsRegistry()
        prev = set_registry(reg)
        try:
            with DistSimCov(
                make_params(config), nranks=NRANKS, seed=config["seed"]
            ) as sim:
                sim.run(config["steps"])
                # Read shm-backed counters while the segments are mapped.
                pulled, skipped = sim.backend.runtime.strip_counts()
        finally:
            set_registry(prev)
        fams = reg.families()
        busy = fams["simcov_dist_rank_busy_seconds_total"].series
        assert {dict(k)["rank"] for k in busy} == {
            str(r) for r in range(NRANKS)
        }
        assert fams["simcov_dist_strips_pulled_total"].series[()].value == (
            pulled
        )
        assert fams["simcov_dist_strips_skipped_total"].series[()].value == (
            skipped
        )
        assert "simcov_dist_imbalance_index" in fams
        assert "simcov_dist_barrier_wait_seconds_total" in fams
        assert fams["simcov_dist_telemetry_dropped_events"].series[
            ()
        ].value == 0.0
