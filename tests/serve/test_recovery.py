"""Crash recovery: kill the server mid-job, restart, finish bitwise.

The strongest claim of DESIGN.md §4g, tested against a *real* server
process dying with SIGKILL semantics (``os._exit``, no cleanup): the
restarted server replays the journal, finishes every incomplete job,
and the results are bitwise identical to a run that was never
interrupted.
"""

import json
import re
import signal
import subprocess
import sys
import time

import pytest

from repro.core.model import SequentialSimCov
from repro.serve import BackgroundServer, ServeApp, ServeClient
from repro.serve.faults import KILL_EXIT_STATUS
from repro.serve.jobs import JobSpec, stats_rows
from repro.serve.journal import JobJournal

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
