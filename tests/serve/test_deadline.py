"""Deadline watchdog and hung-worker detection.

A running job past its ``deadline_s`` — a batched ensemble included — is
preempted-then-failed cleanly (checkpoint preserved for a manual resume); a queued job past its
deadline fails without ever holding a worker; a worker that stops
heartbeating is abandoned and the job retried on a fresh thread.
"""

import time

from repro.io.checkpoint import load_checkpoint
from repro.resilience import RestartPolicy
from repro.serve import BackgroundServer, ServeApp, ServeClient
from repro.serve.faults import ServeFaultSpec
from repro.serve.jobs import stats_rows
from tests.serve.test_server import canonical, ensemble_result

SPEC = {"config": "small_2d", "steps": 25, "seed": 4, "backend": "sequential"}


def serve(**kwargs):
    kwargs.setdefault("port", 0)
    kwargs.setdefault("max_workers", 2)
    kwargs.setdefault("watchdog_interval_s", 0.02)
    return BackgroundServer(ServeApp(**kwargs))


#: A fault that holds the job's first step for longer than any deadline
#: below, so the deadline lands mid-run however fast the host steps.
def hold_first_step():
    return ServeFaultSpec(job=0, step=1, mode="worker_slow", seconds=1.0)


class TestDeadlines:
    def test_running_job_preempted_then_failed(self, tmp_path):
        with serve(checkpoint_dir=str(tmp_path), fault=hold_first_step()) as app:
            client = ServeClient(port=app.port)
            resp = client.submit(dict(SPEC, steps=60, deadline_s=0.3))
            final = client.wait(resp["job"]["id"], timeout=30.0)
            metrics = client.metrics()
            job = app.jobs[resp["job"]["id"]]
        assert final["state"] == "failed"
        assert "DeadlineExceededError" in final["error"]
        assert "checkpoint preserved" in final["error"]
        assert metrics["deadline_expired"] == 1
        # The preemption checkpoint survives for a manual resume.
        assert job.resume_checkpoint is not None
        assert final["steps_done"] < 60

    def test_running_ensemble_keeps_a_checkpoint_that_resumes(self, tmp_path):
        """A batch is preempted-then-failed like any job: its checkpoint
        is mirrored and journaled, and resuming it finishes the batch
        bitwise like the uninterrupted run."""
        spec = {"config": "small_2d", "steps": 60, "backend": "ensemble",
                "ensemble": 4}
        with serve(journal_dir=str(tmp_path), fault=hold_first_step()) as app:
            client = ServeClient(port=app.port)
            resp = client.submit(dict(spec, deadline_s=0.3))
            final = client.wait(resp["job"]["id"], timeout=30.0)
            job = app.jobs[resp["job"]["id"]]
        assert final["state"] == "failed"
        assert "DeadlineExceededError" in final["error"]
        assert "checkpoint preserved" in final["error"]
        assert 0 < final["steps_done"] < 60
        (path,) = (tmp_path / "checkpoints" / job.id).glob("ckpt_step*.npz")
        assert job.resume_checkpoint == str(path)
        resumed = load_checkpoint(str(path))
        assert resumed.step_num == final["steps_done"]
        resumed.run(60 - resumed.step_num)
        members = [stats_rows(series) for series in resumed.member_series]
        assert canonical(members) == canonical(ensemble_result(spec)["members"])

    def test_queued_job_fails_without_running(self):
        # The hog parks at its first step, so it holds the only worker
        # until the starved job has failed, however fast the host.
        fault = ServeFaultSpec(job=0, step=1, mode="worker_hang")
        with serve(max_workers=1, fault=fault) as app:
            client = ServeClient(port=app.port)
            hog = client.submit(dict(SPEC, steps=800))
            starved = client.submit(
                dict(SPEC, seed=9, steps=800, deadline_s=0.2)
            )
            final = client.wait(starved["job"]["id"], timeout=30.0)
            fault.release.set()
            client.wait(hog["job"]["id"], timeout=60.0)
        assert final["state"] == "failed"
        assert "DeadlineExceededError" in final["error"]
        assert final["started_at"] is None  # never reached a worker

    def test_deadline_spec_validation(self):
        from repro.serve.jobs import JobSpec, SpecError

        import pytest

        with pytest.raises(SpecError, match="deadline_s"):
            JobSpec.from_json(dict(SPEC, deadline_s=-1.0))
        spec = JobSpec.from_json(dict(SPEC, deadline_s=2.5))
        assert spec.deadline_s == 2.5
        # Deadline is scheduling metadata: the cache key ignores it.
        bare = JobSpec.from_json(SPEC)
        assert spec.cache_signature() == bare.cache_signature()


class TestHangDetection:
    def test_hung_worker_reclaimed_and_job_retried(self):
        fault = ServeFaultSpec(job=0, step=3, mode="worker_hang")
        with serve(
            fault=fault,
            hang_timeout_s=0.3,
            retry_policy=RestartPolicy(max_restarts=3, backoff=0.01),
        ) as app:
            client = ServeClient(port=app.port)
            resp = client.submit(SPEC)
            final = client.wait(resp["job"]["id"], timeout=60.0)
            metrics = client.metrics()
            # Unpark the abandoned thread so shutdown joins promptly; its
            # late report must be discarded (stale generation).
            fault.release.set()
            time.sleep(0.1)
            after = client.status(resp["job"]["id"])
        assert final["state"] == "done"
        assert metrics["hung_workers"] == 1
        assert metrics["retries"] == 1
        assert final["incidents"][0]["error_type"] == "WorkerHangError"
        assert after["state"] == "done"  # stale thread changed nothing
        assert after["steps_done"] == SPEC["steps"]

    def test_slow_worker_within_timeout_is_left_alone(self):
        fault = ServeFaultSpec(job=0, step=3, mode="worker_slow",
                               seconds=0.2)
        with serve(hang_timeout_s=5.0, fault=fault) as app:
            client = ServeClient(port=app.port)
            resp = client.submit(SPEC)
            final = client.wait(resp["job"]["id"], timeout=60.0)
            metrics = client.metrics()
        assert final["state"] == "done"
        assert metrics["hung_workers"] == 0
        assert metrics["retries"] == 0
