"""Unit tests for the StepEngine, metrics hooks and driver facade."""

import pytest

from repro.core.model import SequentialSimCov
from repro.core.params import SimCovParams
from repro.engine import PhaseMetrics, SequentialBackend, StepEngine


def small_params(steps=5):
    return SimCovParams.fast_test(dim=(12, 12), num_infections=2,
                                  num_steps=steps)


class TestPhaseMetrics:
    def test_record_and_summary(self):
        m = PhaseMetrics()
        m.record("reduce", 0.25)
        m.record("reduce", 0.75)
        m.record("tile_sweep", 0.0, skipped=True)
        assert m.seconds["reduce"] == pytest.approx(1.0)
        assert m.calls["reduce"] == 2
        assert m.skips["tile_sweep"] == 1
        assert m.total_seconds() == pytest.approx(1.0)
        row = m.summary()["reduce"]
        assert row["mean_seconds"] == pytest.approx(0.5)
        skipped = m.summary()["tile_sweep"]
        assert skipped == {"seconds": 0.0, "calls": 0, "skips": 1,
                           "mean_seconds": 0.0}

    def test_format_is_a_table(self):
        m = PhaseMetrics()
        m.record("diffuse", 0.125)
        text = m.format()
        assert "diffuse" in text and "0.1250" in text


class TestStepEngine:
    def test_skipped_phases_counted_not_timed(self):
        engine = StepEngine(SequentialBackend(small_params(), seed=3))
        engine.run(4)
        m = engine.metrics
        # The sequential schedule lists no exchange; tile_sweep is not due.
        assert m.skips == {"tile_sweep": 4}
        assert "tile_sweep" not in m.calls and "tile_sweep" not in m.seconds
        for name in ("intents", "resolve", "reduce"):
            assert m.calls[name] == 4
        assert m.steps == 4 and m.step_seconds >= m.total_seconds()
        # A phase is timed into the table only, not into step_work.
        for rec in engine.step_work:
            assert "phase_seconds" not in rec

    def test_schedules_list_only_the_phases_that_run(self):
        from repro.dist import dist_schedule

        single = SequentialBackend(small_params(), seed=3).schedule()
        assert [p.name for p in single] == [
            "age_extravasate", "intents", "resolve", "epithelial", "diffuse",
            "reduce", "tile_sweep",
        ]
        # A rank runs the same kernel phases after its one band pull.
        assert [p.name for p in dist_schedule()] == [
            "open_exchange", "age_extravasate", "intents", "resolve",
            "epithelial", "diffuse", "reduce",
        ]

    def test_missing_reduce_raises(self):
        class NoReduce(SequentialBackend):
            def phase_reduce(self, ctx):
                return False  # never sets ctx.reduced

        engine = StepEngine(NoReduce(small_params(), seed=3))
        with pytest.raises(RuntimeError, match="did not set"):
            engine.step()

    def test_missing_handler_counts_as_skip(self):
        class NoSweepHandler(SequentialBackend):
            phase_tile_sweep = None

        backend = NoSweepHandler(small_params(), seed=3)
        # getattr(backend, "phase_tile_sweep") is None -> engine skips it.
        engine = StepEngine(backend)
        engine.step()
        assert engine.metrics.skips["tile_sweep"] == 1

    def test_run_defaults_to_params_num_steps(self):
        engine = StepEngine(SequentialBackend(small_params(steps=3), seed=3))
        series = engine.run()
        assert len(series) == 3 and engine.step_num == 3


class TestEngineDriverFacade:
    def test_checkpoint_scalars_are_settable(self):
        sim = SequentialSimCov(small_params(), seed=3)
        sim.run(2)
        sim.pool = 12.5
        sim.step_num = 40
        assert sim.engine.pool == 12.5
        assert sim.engine.step_num == 40
        # And reads delegate back out.
        assert sim.pool == 12.5 and sim.step_num == 40

    def test_facade_views_are_engine_state(self):
        sim = SequentialSimCov(small_params(), seed=3)
        sim.run(3)
        assert sim.series is sim.engine.series
        assert sim.step_work is sim.engine.step_work
        assert sim.phase_metrics is sim.engine.metrics
        assert sim.schedule is sim.engine.schedule


class TestDriverTable:
    """One list of backends: the table beside EngineDriver is what a serve
    job may name and what ``simcov-repro run --backend`` offers."""

    def test_every_name_builds_a_driver_that_agrees(self):
        from repro.engine.driver import DRIVERS, build_driver

        rows = {}
        for name in DRIVERS:
            seed = {"seeds": [3]} if name == "ensemble" else {"seed": 3}
            sim = build_driver(name, small_params(), nranks=2, **seed)
            try:
                sim.run(4)
                rows[name] = sim.series.to_rows()
            finally:
                getattr(sim, "close", lambda: None)()
        assert all(got == rows["sequential"] for got in rows.values()), rows

    def test_jobspec_accepts_exactly_the_table(self):
        from repro.engine.driver import DRIVERS
        from repro.serve.jobs import JobSpec, SpecError

        for name in DRIVERS:
            members = 2 if name == "ensemble" else None
            JobSpec(backend=name, ensemble=members).validate()
        with pytest.raises(SpecError) as refused:
            JobSpec(backend="quantum").validate()
        assert str(tuple(DRIVERS)) in str(refused.value)

    def test_cli_offers_exactly_the_table(self, capsys):
        from repro.engine.driver import DRIVERS
        from repro.experiments.cli import main

        with pytest.raises(SystemExit):
            main(["run", "--backend", "quantum"])
        offered = capsys.readouterr().err.split("choose from")[1].split(",")
        assert [word.strip(" '\n)") for word in offered] == list(DRIVERS)
