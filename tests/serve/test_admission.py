"""Admission control, readiness and SSE resume.

Overload must answer with *typed* 429/503 JSON carrying ``Retry-After``
— never a hang or a dropped socket; cache hits are always admitted; a
draining server flunks readiness while staying live; a reconnecting SSE
client resumes exactly after its ``Last-Event-ID``.
"""

import http.client
import json

import pytest

from repro.serve import BackgroundServer, ServeApp, ServeClient, ServeError
from repro.serve.client import parse_sse

SPEC = {"config": "small_2d", "steps": 25, "seed": 4, "backend": "sequential"}


def serve(**kwargs):
    kwargs.setdefault("port", 0)
    kwargs.setdefault("max_workers", 1)
    return BackgroundServer(ServeApp(**kwargs))


def raw_post_jobs(port, spec):
    """POST /jobs with raw http.client, returning (status, headers, body)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request(
            "POST", "/jobs", body=json.dumps(spec),
            headers={"Content-Type": "application/json"},
        )
        resp = conn.getresponse()
        return resp.status, dict(resp.getheaders()), json.loads(resp.read())
    finally:
        conn.close()


class TestQueueBound:
    def test_queue_full_is_typed_503(self):
        with serve(max_queue_depth=1) as app:
            client = ServeClient(port=app.port)
            running = client.submit(dict(SPEC, steps=1800))
            queued = client.submit(dict(SPEC, seed=5, steps=1800))
            status, headers, body = raw_post_jobs(
                app.port, dict(SPEC, seed=6, steps=1800)
            )
            assert status == 503
            assert body["reason"] == "queue_full"
            assert float(body["retry_after"]) > 0
            assert "Retry-After" in headers
            metrics = client.metrics()
            assert metrics["rejected"] == 1
            # The registry carries a per-reason counter for scrapers.
            assert (
                'simcov_serve_rejected_reason_total{reason="queue_full"}'
                in client.metrics_text()
            )
            client.wait(running["job"]["id"], timeout=60.0)
            client.wait(queued["job"]["id"], timeout=60.0)

    def test_client_errors_are_serve_error_with_retry_after(self):
        with serve(max_queue_depth=0) as app:
            client = ServeClient(port=app.port)
            with pytest.raises(ServeError) as excinfo:
                client.submit(dict(SPEC, steps=1800))
            assert excinfo.value.status == 503
            assert excinfo.value.retry_after is not None


class TestClientCap:
    def test_per_client_inflight_cap_is_429(self):
        with serve(max_inflight_per_client=1) as app:
            client = ServeClient(port=app.port)
            first = client.submit(
                dict(SPEC, steps=1800, client="alice")
            )
            status, headers, body = raw_post_jobs(
                app.port, dict(SPEC, seed=5, steps=1800, client="alice")
            )
            assert status == 429
            assert body["reason"] == "client_limit"
            assert "Retry-After" in headers
            # A different client is unaffected by alice's cap.
            other = client.submit(dict(SPEC, seed=6, client="bob"))
            client.wait(first["job"]["id"], timeout=60.0)
            client.wait(other["job"]["id"], timeout=60.0)
            # Terminal jobs release the cap.
            again = client.submit(
                dict(SPEC, seed=7, client="alice")
            )
            client.wait(again["job"]["id"], timeout=60.0)

    def test_cache_hits_always_admitted(self):
        with serve(max_queue_depth=1, max_inflight_per_client=1) as app:
            client = ServeClient(port=app.port)
            cold = client.submit(SPEC)
            client.wait(cold["job"]["id"], timeout=60.0)
            # Saturate the cold path...
            hog = client.submit(dict(SPEC, seed=8, steps=1800))
            # ...hits and joins still go through (they cost nothing).
            hit = client.submit(SPEC)
            assert hit["cache"] == "hit"
            join = client.submit(dict(SPEC, seed=8, steps=1800))
            assert join["cache"] == "join"
            client.wait(hog["job"]["id"], timeout=60.0)


class TestReadiness:
    def test_draining_flunks_readiness_and_submits(self):
        with serve() as app:
            client = ServeClient(port=app.port)
            assert client.readyz() == {"ready": True}
            assert client.healthz()["status"] == "serving"
            # Flip the admission flag alone (full drain would stop the
            # empty server before we could probe it).
            app._draining = True
            with pytest.raises(ServeError) as excinfo:
                client.readyz()
            assert excinfo.value.status == 503
            assert excinfo.value.payload["reason"] == "draining"
            with pytest.raises(ServeError) as excinfo:
                client.submit(SPEC)
            assert excinfo.value.status == 503
            assert excinfo.value.payload["reason"] == "draining"
            # Liveness stays green: a draining server must not be killed.
            health = client.healthz()
            assert health["ok"] is True
            assert health["status"] == "draining"
            app._draining = False
            assert client.readyz() == {"ready": True}

    def test_replay_failure_flunks_readiness(self, tmp_path):
        from repro.serve.journal import JobJournal, frame_record, \
            segment_path

        # Corrupt a NON-final segment: replay must refuse, serve empty.
        journal = JobJournal(str(tmp_path))
        journal.append({"type": "submit", "job": "a", "seq": 0, "spec": {}})
        journal.close()
        with open(segment_path(str(tmp_path), 1), "wb") as fh:
            fh.write(frame_record({"type": "complete", "job": "a"}))
        with open(segment_path(str(tmp_path), 0), "r+b") as fh:
            fh.truncate(3)
        with pytest.warns(RuntimeWarning, match="journal replay failed"):
            with serve(journal_dir=str(tmp_path)) as app:
                client = ServeClient(port=app.port)
                with pytest.raises(ServeError) as excinfo:
                    client.readyz()
                assert excinfo.value.status == 503
                payload = excinfo.value.payload
                assert payload["reason"] == "journal_replay_failed"
                assert client.healthz()["ok"] is True


class TestSseResume:
    def test_last_event_id_replays_suffix(self):
        with serve() as app:
            client = ServeClient(port=app.port)
            resp = client.submit(SPEC)
            client.wait(resp["job"]["id"], timeout=60.0)
            job_id = resp["job"]["id"]

            def fetch(last_id=None):
                conn = http.client.HTTPConnection(
                    "127.0.0.1", app.port, timeout=30
                )
                try:
                    headers = {}
                    if last_id is not None:
                        headers["Last-Event-ID"] = str(last_id)
                    conn.request(
                        "GET", f"/jobs/{job_id}/events", headers=headers
                    )
                    resp_ = conn.getresponse()
                    state: dict = {}
                    frames = []
                    for name, data in parse_sse(resp_, state=state):
                        frames.append((state.get("id"), name, data))
                    return frames
                finally:
                    conn.close()

            full = fetch()
            assert len(full) >= 3  # state + steps + done
            ids = [i for i, _, _ in full]
            assert ids == sorted(ids)
            cut = ids[len(ids) // 2]
            resumed = fetch(last_id=cut)
            assert resumed == full[ids.index(cut) + 1:]
            # Resuming past the end yields an immediately-closed stream.
            assert fetch(last_id=ids[-1]) == []

    def test_iter_events_reconnect_tracks_ids(self):
        with serve() as app:
            client = ServeClient(port=app.port)
            resp = client.submit(SPEC)
            names = [n for n, _ in client.iter_events(resp["job"]["id"])]
            assert names[-1] == "done"
            assert names.count("done") == 1
