"""Crash recovery: kill the server mid-job, restart, finish bitwise.

The strongest claim of DESIGN.md §4g, tested against a *real* server
process dying with SIGKILL semantics (``os._exit``, no cleanup): the
restarted server replays the journal, finishes every incomplete job,
and the results are bitwise identical to a run that was never
interrupted.
"""

import asyncio
import json
import re
import signal
import subprocess
import sys
import time
from collections import Counter

import pytest

from repro.core.model import SequentialSimCov
from repro.resilience import RestartPolicy
from repro.serve import BackgroundServer, ServeApp, ServeClient
from repro.serve import runner as runner_mod
from repro.serve.faults import KILL_EXIT_STATUS, ServeFaultSpec
from repro.serve.jobs import TERMINAL_STATES, JobSpec, stats_rows
from repro.serve.journal import JobJournal, frame_record, list_segments, segment_path
from tests.serve.test_server import ensemble_result

SPEC = {"dim": [48, 48], "steps": 300, "seed": 7, "backend": "sequential"}


def canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True)


def reference_rows(spec_json):
    spec = JobSpec.from_json(
        {k: v for k, v in spec_json.items() if k != "backend"}
    )
    params, steps = spec.resolve_params()
    sim = SequentialSimCov(params, seed=spec.seed)
    sim.run(steps)
    return stats_rows(sim.series)


def wait_running(client, job_id, min_steps=1):
    deadline = time.monotonic() + 30
    while True:
        status = client.status(job_id)
        if status["state"] == "running" and status["steps_done"] >= min_steps:
            return
        assert time.monotonic() < deadline, status
        time.sleep(0.005)


def restored(journal_dir, **kwargs):
    """A second app on ``journal_dir`` after its replay, not started (so
    nothing it re-queued runs)."""

    async def restore():
        app = ServeApp(port=0, journal_dir=str(journal_dir), **kwargs)
        app._restore_from_journal()
        return app

    return asyncio.run(restore())


def spawn_server(journal_dir, *extra):
    """A real CLI server process on an ephemeral port; returns
    ``(proc, port)`` once it prints its bound address."""
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.experiments.cli", "serve",
            "--port", "0", "--workers", "1",
            "--journal-dir", str(journal_dir),
            "--retry-backoff", "0.01",
            *extra,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    deadline = time.monotonic() + 30
    line = ""
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if "serving on http://" in line:
            break
        if proc.poll() is not None:
            raise RuntimeError(
                f"server died during startup: {proc.stdout.read()}"
            )
    match = re.search(r"http://[\d.]+:(\d+)", line)
    if not match:
        proc.kill()
        raise RuntimeError(f"no port line from server, got {line!r}")
    return proc, int(match.group(1))


@pytest.mark.slow
class TestServerKillRecovery:
    def test_server_kill_mid_job_recovers_bitwise(self, tmp_path):
        journal_dir = tmp_path / "journal"
        # One worker: job 0 runs while the other two wait in the queue.
        specs = [
            SPEC,
            dict(SPEC, steps=40, seed=8),
            dict(SPEC, steps=40, seed=9),
        ]
        # The chaos fault SIGKILLs the server when job 0 reaches step 150.
        proc, port = spawn_server(
            journal_dir, "--inject-serve-fault", "0:150:server_kill"
        )
        try:
            client = ServeClient(port=port)
            job_ids = [client.submit(spec)["job"]["id"] for spec in specs]
            assert proc.wait(timeout=120) == KILL_EXIT_STATUS
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        # Restart on the same journal: every job must come back by itself,
        # same id, and finish bitwise-identically.
        proc, port = spawn_server(journal_dir)
        try:
            client = ServeClient(port=port)
            rows = []
            for job_id in job_ids:
                final = client.wait(job_id, timeout=120.0)
                assert final["state"] == "done"
                rows.append(client.result(job_id)["result"]["rows"])
            metrics = client.metrics()
            assert metrics["replayed_jobs"] == len(specs)
            assert client.readyz() == {"ready": True}
        finally:
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60) == 0  # graceful drain exits 0
        for spec, got in zip(specs, rows):
            assert canonical(got) == canonical(reference_rows(spec))

    def test_server_kill_after_an_ensemble_checkpoint_recovers(self, tmp_path):
        journal_dir = tmp_path / "journal"
        batch_spec = {"config": "small_2d", "steps": 1000, "seed": 3,
                      "backend": "ensemble", "ensemble": 4}
        urgent_spec = dict(SPEC, steps=10, seed=1, priority=5)
        # Job 1 kills the server at its third step: to run at all it has
        # preempted the batch, whose checkpoint is mirrored and journaled.
        proc, port = spawn_server(
            journal_dir, "--inject-serve-fault", "1:3:server_kill"
        )
        try:
            client = ServeClient(port=port)
            batch = client.submit(batch_spec)["job"]["id"]
            wait_running(client, batch)
            urgent = client.submit(urgent_spec)["job"]["id"]
            assert proc.wait(timeout=120) == KILL_EXIT_STATUS
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert list((journal_dir / "checkpoints" / batch).glob("ckpt_step*.npz"))
        proc, port = spawn_server(journal_dir)
        try:
            client = ServeClient(port=port)
            final = client.wait(batch, timeout=120.0)
            result = client.result(batch)["result"]
            urgent_rows = client.result(urgent)["result"]["rows"]
        finally:
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60) == 0
        assert final["state"] == "done"
        assert final["preemptions"] == 1
        assert canonical(result) == canonical(ensemble_result(batch_spec))
        assert canonical(urgent_rows) == canonical(reference_rows(urgent_spec))

    def test_journal_torn_by_crash_recovers(self, tmp_path):
        journal_dir = tmp_path / "journal"
        # journal_torn writes a partial frame, then dies like SIGKILL —
        # the restart must truncate the torn tail, not crash.
        proc, port = spawn_server(
            journal_dir, "--inject-serve-fault", "0:150:journal_torn"
        )
        try:
            client = ServeClient(port=port)
            resp = client.submit(SPEC)
            job_id = resp["job"]["id"]
            assert proc.wait(timeout=120) == KILL_EXIT_STATUS
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        proc, port = spawn_server(journal_dir)
        try:
            client = ServeClient(port=port)
            assert client.readyz() == {"ready": True}  # replay succeeded
            final = client.wait(job_id, timeout=120.0)
            assert final["state"] == "done"
            rows = client.result(job_id)["result"]["rows"]
        finally:
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60) == 0
        assert canonical(rows) == canonical(reference_rows(SPEC))


class TestDrainResume:
    def test_drain_checkpoints_and_restart_resumes(self, tmp_path):
        journal_dir = str(tmp_path / "journal")
        ref = reference_rows(SPEC)
        with BackgroundServer(
            ServeApp(port=0, max_workers=1, journal_dir=journal_dir)
        ) as app:
            client = ServeClient(port=app.port)
            resp = client.submit(SPEC)
            job_id = resp["job"]["id"]
            # Let it make progress, then drain (the SIGTERM path).
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                if client.status(job_id)["steps_done"] >= 20:
                    break
                time.sleep(0.01)
            app.drain()
        # BackgroundServer.__exit__ joined the loop thread: the journal
        # now holds submit/start/preempt records and a disk checkpoint.
        with BackgroundServer(
            ServeApp(port=0, max_workers=1, journal_dir=journal_dir)
        ) as app:
            client = ServeClient(port=app.port)
            summary = client.status(job_id)
            assert summary["state"] in ("queued", "running", "done")
            final = client.wait(job_id, timeout=120.0)
            assert final["state"] == "done"
            rows = client.result(job_id)["result"]["rows"]
            metrics = client.metrics()
            assert metrics["replayed_jobs"] == 1
            # It resumed from the drain checkpoint, not from step 0.
            assert metrics["resumes"] >= 1
        assert canonical(rows) == canonical(ref)

    def test_drained_ensemble_resumes_bitwise(self, tmp_path):
        journal_dir = str(tmp_path / "journal")
        spec = {"config": "small_2d", "steps": 60, "seed": 3,
                "backend": "ensemble", "ensemble": 4}
        # The batch's fifth step is held, so the drain lands mid-run.
        fault = ServeFaultSpec(job=0, step=5, mode="worker_slow", seconds=0.5)
        with BackgroundServer(
            ServeApp(port=0, max_workers=1, journal_dir=journal_dir, fault=fault)
        ) as app:
            client = ServeClient(port=app.port)
            job_id = client.submit(spec)["job"]["id"]
            wait_running(client, job_id, min_steps=5)
            app.drain()
        with BackgroundServer(
            ServeApp(port=0, max_workers=1, journal_dir=journal_dir)
        ) as app:
            client = ServeClient(port=app.port)
            final = client.wait(job_id, timeout=120.0)
            result = client.result(job_id)["result"]
            metrics = client.metrics()
        assert final["state"] == "done"
        assert metrics["replayed_jobs"] == 1
        assert metrics["resumes"] >= 1
        assert canonical(result) == canonical(ensemble_result(spec))

    def test_completed_jobs_survive_restart_via_disk_cache(self, tmp_path):
        journal_dir = str(tmp_path / "journal")
        spec = dict(SPEC, steps=25)
        with BackgroundServer(
            ServeApp(port=0, journal_dir=journal_dir)
        ) as app:
            client = ServeClient(port=app.port)
            resp = client.submit(spec)
            job_id = resp["job"]["id"]
            client.wait(job_id, timeout=60.0)
            cold = client.result(job_id)["result"]
        with BackgroundServer(
            ServeApp(port=0, journal_dir=journal_dir)
        ) as app:
            client = ServeClient(port=app.port)
            # The job is still addressable, already done, result intact.
            summary = client.status(job_id)
            assert summary["state"] == "done"
            warm = client.result(job_id)["result"]
            assert client.metrics()["replayed_jobs"] == 0
        assert canonical(warm) == canonical(cold)


class TestLegacyBackendNames:
    def test_a_journaled_gpu_job_replays(self, tmp_path):
        """Earlier releases accepted ``cpu`` and ``gpu`` as backends; a
        journal written then still replays, on the single-block stepper
        both named, to the rows of an uninterrupted run."""
        journal_dir = str(tmp_path / "journal")
        spec = dict(SPEC, steps=25, backend="gpu", nranks=4)
        journal = JobJournal(journal_dir)
        journal.append({"type": "submit", "job": "legacy", "seq": 0, "spec": spec})
        journal.close()
        with BackgroundServer(ServeApp(port=0, journal_dir=journal_dir)) as app:
            client = ServeClient(port=app.port)
            assert client.wait("legacy", timeout=60.0)["state"] == "done"
            rows = client.result("legacy")["result"]["rows"]
            assert client.metrics()["replayed_jobs"] == 1
        assert canonical(rows) == canonical(reference_rows(spec))


#: Summary fields that are wall-clock stamps, not job state.
TIMESTAMPS = ("submitted_at", "started_at", "finished_at")


def stateful(summary):
    return {k: v for k, v in summary.items() if k not in TIMESTAMPS}


class TestCompactionRoundTrip:
    def test_every_state_survives_compaction(self, tmp_path, monkeypatch):
        """With compaction after every segment, a job in each state
        replays from the compacted journal to the same summary."""
        journal_dir = tmp_path / "journal"
        build_sim = runner_mod.build_sim

        def build_or_fail(job, tracer=None):
            if job.spec.seed == 99:
                raise ValueError("injected permanent misconfiguration")
            return build_sim(job, tracer=tracer)

        monkeypatch.setattr(runner_mod, "build_sim", build_or_fail)
        # The third cold job (the one the drain preempts) holds its first
        # step, so the drain lands mid-run however fast the host.
        fault = ServeFaultSpec(job=2, step=1, mode="worker_slow", seconds=1.0)
        app = ServeApp(
            port=0, max_workers=1, journal_dir=str(journal_dir), fault=fault
        )
        app.journal.compact_bytes = 1
        with BackgroundServer(app):
            client = ServeClient(port=app.port)
            done = client.submit(dict(SPEC, steps=10))["job"]["id"]
            failed = client.submit(dict(SPEC, steps=10, seed=99))["job"]["id"]
            assert client.wait(done)["state"] == "done"
            assert client.wait(failed)["state"] == "failed"
            preempted = client.submit(dict(SPEC, steps=100))["job"]["id"]
            wait_running(client, preempted)
            cancelled = client.submit(dict(SPEC, seed=8))["job"]["id"]
            assert client.cancel(cancelled)["state"] == "cancelled"
            app.drain()
        ids = (done, failed, cancelled, preempted)
        before = {i: stateful(app.jobs[i].summary()) for i in ids}
        assert [before[i]["state"] for i in ids] == [
            "done", "failed", "cancelled", "queued"
        ]
        assert before[preempted]["preemptions"] == 1
        # The drain's preempt was the last segment: the log is one
        # compacted segment.
        assert [index for index, _ in list_segments(str(journal_dir))] != [0]
        assert len(list_segments(str(journal_dir))) == 1
        again = restored(journal_dir, max_workers=1)
        assert {i: stateful(again.jobs[i].summary()) for i in ids} == before


class TestCrashAtEveryRecord:
    def test_every_journal_prefix_replays_consistently(self, tmp_path):
        """Cut the journal after each record, as a crash would, and
        replay: every job is in its last record's terminal state or
        queued exactly once, and the admission counters count exactly
        the queued ones."""
        journal_dir = tmp_path / "journal"
        app = ServeApp(
            port=0, max_workers=1, journal_dir=str(journal_dir),
            retry_policy=RestartPolicy(max_restarts=3, backoff=0.0),
            # The second cold job (the urgent one) crashes at step 3.
            fault=ServeFaultSpec(job=1, step=3, mode="worker_crash"),
        )
        with BackgroundServer(app):
            client = ServeClient(port=app.port)
            low = client.submit(dict(SPEC, steps=2000))["job"]["id"]
            wait_running(client, low)
            urgent = client.submit(
                dict(SPEC, steps=10, seed=2, priority=5, client="urgent")
            )["job"]["id"]
            queued = client.submit(dict(SPEC, steps=10, seed=3))["job"]["id"]
            client.cancel(queued)
            assert client.wait(urgent)["state"] == "done"
            app.drain()
        records = JobJournal(str(journal_dir)).replay()
        assert {"preempt", "retry", "cancel", "complete"} <= {
            r["type"] for r in records
        }
        terminal = {"complete": "done", "fail": "failed", "cancel": "cancelled"}
        for cut in range(len(records) + 1):
            prefix_dir = tmp_path / f"prefix-{cut}"
            prefix_dir.mkdir()
            with open(segment_path(str(prefix_dir), 0), "wb") as fh:
                for record in records[:cut]:
                    fh.write(frame_record(record))
            last = {r["job"]: r["type"] for r in records[:cut]}
            replayed = restored(prefix_dir, cache_dir=str(journal_dir / "cache"))
            assert set(replayed.jobs) == set(last)
            queue = [j.id for j in replayed.scheduler.queue.jobs()]
            for job_id, rtype in last.items():
                job = replayed.jobs[job_id]
                if rtype in terminal:
                    assert job.state == terminal[rtype], (cut, rtype)
                    assert job_id not in queue
                else:
                    assert job.state == "queued", (cut, rtype)
                    assert queue.count(job_id) == 1
            active = [
                j for j in replayed.jobs.values()
                if j.state not in TERMINAL_STATES
            ]
            assert len(queue) == len(active)
            assert replayed._client_active == dict(
                Counter(j.spec.client for j in active)
            )
            assert sorted(replayed._inflight.values()) == sorted(
                j.id for j in active
            )
