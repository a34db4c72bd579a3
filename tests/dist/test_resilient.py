"""Recovery matrix for a distributed run retried by ``run_job``.

The headline property of the one fault-tolerance stack: a run that loses
a worker mid-flight — to a hard kill, an exception, or a stall — is
retried from its last shadow snapshot and finishes with per-step
statistics **bitwise identical** to a fault-free run, whether it restarts
at the same rank count or shrinks onto fewer ranks.  The repo-wide
shm-leak fixture additionally asserts every failed attempt tears down its
wrecked runtime completely.

These tests pick their own rank counts (``ranks`` parameter), unlike the
rest of tests/dist whose ``nranks`` fixture the CI matrix pins via
``REPRO_DIST_NRANKS``.
"""

import json

import numpy as np
import pytest

from repro.core.model import SequentialSimCov
from repro.core.params import SimCovParams
from repro.core.stats import StepStats
from repro.dist import FaultSpec
from repro.io.checkpoint import KEEP_CHECKPOINTS
from repro.resilience import (
    RestartPolicy,
    RestartsExhaustedError,
    write_incident_log,
)
from repro.serve.jobs import Job, JobSpec
from repro.serve.runner import job_checkpoint_dir, run_job
from repro.telemetry import RingBufferSink, Tracer

STEPS = 12
FAULT_STEP = 7


def _params():
    return SimCovParams.fast_test(
        dim=(16, 16), num_infections=1, num_steps=STEPS
    )


def _job(ranks, seed=3, steps=STEPS):
    spec = JobSpec(backend="dist", nranks=ranks, seed=seed, steps=steps)
    return Job(id="resilient", spec=spec, params=_params(), steps=steps,
               cache_key="")


def _reference_series(seed):
    ref = SequentialSimCov(_params(), seed=seed)
    ref.run(STEPS)
    return ref


def assert_rows_bitwise(job, ref, label):
    __tracebackhide__ = True
    rows = job.result["rows"]
    assert len(rows) == len(ref.series), label
    for i, row in enumerate(rows):
        assert StepStats(**row) == ref.series[i], f"{label}: step {i}"


def _recoveries(ring):
    return [
        e for e in ring.events if e.name == "recovery" and e.cat == "resilience"
    ]


MATRIX = [
    ("die", "restart", 2),
    ("die", "shrink", 2),
    ("error", "restart", 2),
    ("error", "shrink", 2),
    ("stall", "restart", 2),
    ("stall", "shrink", 2),
    ("die", "restart", 4),
    ("die", "shrink", 4),
]


@pytest.mark.parametrize("mode,on_failure,ranks", MATRIX)
def test_recovery_is_bitwise_exact(mode, on_failure, ranks):
    """Every fault kind x policy x rank count recovers to the exact
    fault-free time series (golden-trace guarantee across restarts)."""
    ref = _reference_series(seed=3)
    fault = FaultSpec(rank=1, step=FAULT_STEP, phase="intents", mode=mode)
    ring = RingBufferSink()
    tracer = Tracer(backend="dist", sinks=[ring])
    job = _job(ranks)
    # Stalls surface as barrier timeouts; keep that wait short.
    timeout = 1.0 if mode == "stall" else 30.0
    run_job(
        job, RestartPolicy(max_restarts=2, on_failure=on_failure),
        fault=fault, checkpoint_every=5, tracer=tracer,
        driver_kwargs={"barrier_timeout": timeout},
    )
    assert_rows_bitwise(job, ref, f"{mode}/{on_failure}/{ranks}")
    assert len(job.incidents) == 1
    after = ranks - 1 if on_failure == "shrink" else ranks
    assert job.spec.nranks == after
    incident = job.incidents[0]
    assert incident.step == FAULT_STEP
    assert incident.restored_step == 5
    assert incident.steps_replayed == FAULT_STEP - 5
    (span,) = _recoveries(ring)
    assert span.attrs["nranks_before"] == ranks
    assert span.attrs["nranks_after"] == after


def test_recovered_fields_match_sequential_bitwise():
    """Beyond the reduced series: every voxel field of the last periodic
    snapshot of a recovered run is identical to the fault-free
    sequential run's."""
    ref = _reference_series(seed=3)
    fault = FaultSpec(rank=0, step=FAULT_STEP, phase="epithelial", mode="die")
    job = _job(2)
    run_job(job, fault=fault, checkpoint_every=4)
    assert len(job.incidents) == 1
    assert job.snapshot["step_num"] == STEPS
    for name in ("epi_state", "epi_timer", "virions", "chemokine", "tcell"):
        np.testing.assert_array_equal(
            job.snapshot["arrays"][name], ref.gather_field(name), err_msg=name,
        )


def test_recovery_before_first_periodic_checkpoint():
    """A failure before step ``checkpoint_every`` rolls back to the
    seeded step-0 state, not to garbage."""
    ref = _reference_series(seed=5)
    fault = FaultSpec(rank=1, step=2, phase="diffuse", mode="die")
    job = _job(2, seed=5)
    run_job(job, fault=fault, checkpoint_every=50)
    assert job.incidents[0].restored_step == 0
    assert job.incidents[0].steps_replayed == 2
    assert_rows_bitwise(job, ref, "step0-rollback")


def test_repeating_fault_restarts_twice():
    """``repeat=2`` re-injects the fault into the rebuilt runtime; the
    retry loop rides through both incidents."""
    ref = _reference_series(seed=3)
    fault = FaultSpec(
        rank=1, step=FAULT_STEP, phase="intents", mode="die", repeat=2
    )
    job = _job(2)
    run_job(job, RestartPolicy(max_restarts=3), fault=fault, checkpoint_every=5)
    assert [i.index for i in job.incidents] == [1, 2]
    assert_rows_bitwise(job, ref, "repeat=2")


def test_restart_budget_exhausted_raises_with_incident_log(tmp_path):
    """A fault that outlives the budget surfaces RestartsExhaustedError
    carrying (and formatting) the full incident history — the failure
    that gave up included — and the shm segments of every incarnation
    are still released."""
    fault = FaultSpec(rank=1, step=3, phase="intents", mode="die", repeat=10)
    job = _job(2)
    with pytest.raises(RestartsExhaustedError) as excinfo:
        run_job(
            job, RestartPolicy(max_restarts=2), fault=fault,
            checkpoint_every=2,
        )
    err = excinfo.value
    assert len(err.incidents) == 3
    assert "giving up after 2 restarts" in str(err)
    for index in (1, 2, 3):
        assert f"incident {index}" in str(err)
    # The incident log round-trips to JSONL for CI artifacts.
    log = tmp_path / "incidents.jsonl"
    write_incident_log(str(log), err.incidents)
    rows = [json.loads(line) for line in log.read_text().splitlines()]
    assert [r["index"] for r in rows] == [1, 2, 3]
    assert all(r["error_type"] == "WorkerFailedError" for r in rows)
    assert [r["restored_step"] for r in rows] == [2, 2, 2]


def test_shrink_stops_at_min_ranks_and_drops_the_fault():
    """Shrinking to one rank keeps working (the dist runtime degenerates
    to a single worker), and a fault pinned to a rank that no longer
    exists cannot re-fire."""
    ref = _reference_series(seed=3)
    fault = FaultSpec(
        rank=1, step=FAULT_STEP, phase="intents", mode="die", repeat=5
    )
    job = _job(2)
    run_job(
        job, RestartPolicy(max_restarts=3, on_failure="shrink"),
        fault=fault, checkpoint_every=5,
    )
    # rank 1 died once; the shrunken 1-rank run has no rank 1.
    assert len(job.incidents) == 1
    assert job.spec.nranks == 1
    assert_rows_bitwise(job, ref, "shrink-to-1")


def test_benign_faults_complete_without_recovery():
    """slow and freeze_heartbeat degrade observability/latency but not
    correctness: no restart, bitwise-exact output."""
    ref = _reference_series(seed=3)
    for mode in ("slow", "freeze_heartbeat"):
        fault = FaultSpec(
            rank=1, step=FAULT_STEP, phase="intents", mode=mode, delay=0.01
        )
        job = _job(2)
        run_job(job, fault=fault, checkpoint_every=5)
        assert job.incidents == [], mode
        assert_rows_bitwise(job, ref, mode)


def test_on_disk_checkpoints_written_atomically_and_rotated(tmp_path):
    """A checkpoint root mirrors every shadow snapshot to a rotated,
    loadable on-disk checkpoint in the job's directory; no tmp files
    survive."""
    from repro.io.checkpoint import load_checkpoint

    ckroot = tmp_path / "ckpts"
    job = _job(2, steps=8)
    run_job(job, checkpoint_every=2, checkpoint_root=str(ckroot))
    ckdir = job_checkpoint_dir(str(ckroot), job)
    names = sorted(p.name for p in (ckroot / job.id).iterdir())
    assert names == [
        f"ckpt_step{step:08d}.npz" for step in (2, 4, 6, 8)
    ][-KEEP_CHECKPOINTS:]
    # The newest checkpoint resumes bitwise on the sequential driver.
    resumed = load_checkpoint(f"{ckdir}/ckpt_step00000008.npz")
    assert resumed.step_num == 8
    ref = _reference_series(seed=3)
    for _ in range(STEPS - 8):
        last = resumed.step()
    assert last == ref.series[STEPS - 1]


def test_recovery_telemetry_reaches_trace_report():
    """The recovery and checkpoint spans land in the run's one trace with
    cat="resilience", and trace report counts restarts, replayed steps
    and checkpoints from them and renders the incident table."""
    from repro.telemetry.report import format_report, summarize

    ring = RingBufferSink()
    tracer = Tracer(backend="dist", sinks=[ring])
    fault = FaultSpec(rank=1, step=FAULT_STEP, phase="intents", mode="die")
    job = _job(2)
    run_job(job, fault=fault, checkpoint_every=5, tracer=tracer)
    assert len(job.incidents) == 1
    tracer.close()
    events = list(ring.events)
    (span,) = _recoveries(ring)
    assert span.attrs["error"] == "WorkerFailedError"
    assert span.attrs["restored_step"] == 5
    assert span.attrs["steps_replayed"] == 2

    summary = summarize(events)
    res = summary["resilience"]
    assert res["restarts"] == 1
    assert res["steps_replayed"] == 2
    # Periodic snapshots of both attempts, each a timed resilience span.
    checkpoints = [e for e in events if e.name == "checkpoint"]
    assert {e.cat for e in checkpoints} == {"resilience"}
    assert res["checkpoints"] == len(checkpoints) >= 2
    assert len(res["incidents"]) == 1
    text = format_report(summary)
    assert "resilience: 1 restart" in text
    assert "incident 1: WorkerFailedError" in text


def test_policy_validation():
    with pytest.raises(ValueError, match="on_failure"):
        RestartPolicy(on_failure="panic")
    with pytest.raises(ValueError, match="max_restarts"):
        RestartPolicy(max_restarts=-1)
    with pytest.raises(ValueError, match="min_ranks"):
        RestartPolicy(min_ranks=0)
    with pytest.raises(ValueError, match="checkpoint_every"):
        run_job(_job(2), checkpoint_every=0)
    assert RestartPolicy(backoff=0.5).backoff_seconds(3) == 2.0
    assert RestartPolicy().backoff_seconds(3) == 0.0
