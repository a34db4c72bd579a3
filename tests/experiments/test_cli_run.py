"""``simcov-repro run`` in process: a one-job run through serve's runner.

The flags resolve through ``serve.jobs.JobSpec``; a dist run under
``--on-failure restart|shrink`` retries through ``serve.runner.run_job``
and must end on the fault-free sequential run's last step.
"""

import json

import pytest

from repro.core.model import SequentialSimCov
from repro.core.params import SimCovParams
from repro.experiments.cli import main


def _last_step_line(steps, dim=(16, 16), seed=0):
    """The ``step N: ...`` line the fault-free sequential run ends on
    (``repr`` of a float is exact, so equal text is equal bits)."""
    params = SimCovParams.fast_test(dim=dim, num_infections=2, num_steps=steps)
    ref = SequentialSimCov(params, seed=seed)
    ref.run(steps)
    return f"step {steps:>5}: {ref.series[steps - 1]}"


def test_run_without_dim_prints_the_resolved_dim(capsys, tmp_path):
    assert main(["run", "--steps", "3", "--outdir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "dim=(64, 64) steps=3" in out
    assert main(["run", "--config", "small_2d", "--steps", "3"]) == 0
    out = capsys.readouterr().out
    assert "dim=(16, 16) steps=3" in out
    assert _last_step_line(3) in out


@pytest.mark.parametrize("flag,value,message", [
    ("--checkpoint-every", "0", "checkpoint-every must be >= 1"),
    ("--max-restarts", "-1", "max_restarts must be >= 0"),
    ("--nranks", "0", "nranks must be >= 1"),
])
def test_bad_resilience_flags_exit_2_with_one_line(capsys, flag, value, message):
    argv = [
        "run", "--backend", "dist", "--dim", "16", "16", "--steps", "2",
        "--on-failure", "restart", flag, value,
    ]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.strip().splitlines() == [err.strip()]
    assert message in err


@pytest.mark.parametrize("on_failure,repeat", [("restart", 1), ("shrink", 2)])
def test_fault_recovery_matches_sequential(capsys, tmp_path, on_failure, repeat):
    log = tmp_path / "incidents.jsonl"
    argv = [
        "run", "--backend", "dist", "--nranks", "2", "--dim", "16", "16",
        "--steps", "12", "--on-failure", on_failure,
        "--checkpoint-every", "5",
        "--inject-fault", f"1:7:intents:die:{repeat}",
        "--incident-log", str(log),
    ]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert _last_step_line(12) in out
    assert "recovered from 1 failure(s):" in out
    # Shrink leaves one rank: the fault's rank 1 is gone, so it fires once.
    rows = [json.loads(line) for line in log.read_text().splitlines()]
    assert rows == [{
        "index": 1, "step": 7, "error_type": "WorkerFailedError",
        "message": rows[0]["message"], "classification": "retryable",
        "restored_step": 5, "steps_replayed": 2, "backoff_seconds": 0.0,
    }]
    assert rows[0]["message"].startswith("WorkerFailedError: ")


@pytest.mark.parametrize("members", [
    ["--ensemble", "2"], ["--sweep", "num_infections=1:4:2"],
])
def test_an_ensemble_run_validates_its_steps_like_a_solo_run(capsys, tmp_path, members):
    argv = ["run", *members, "--dim", "16", "16", "--steps", "0", "--outdir", str(tmp_path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.strip() == "steps must be >= 1, got 0"


def test_an_ensemble_runs_trace_names_the_ensemble_driver(capsys, tmp_path):
    trace = tmp_path / "t.jsonl"
    argv = [
        "run", "--ensemble", "2", "--dim", "16", "16", "--steps", "2",
        "--trace", str(trace), "--outdir", str(tmp_path),
    ]
    assert main(argv) == 0
    spans = [
        row for row in map(json.loads, trace.read_text().splitlines())
        if row["kind"] == "span" and row["cat"] == "phase"
    ]
    assert spans and {row["attrs"]["backend"] for row in spans} == {"ensemble"}
