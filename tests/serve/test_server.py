"""End-to-end serve tests over real HTTP (ephemeral-port server).

The load-bearing claims: a served result is bitwise identical to the
in-process run, a cache hit is bitwise identical to the cold run that
populated it, and a preempted-and-resumed job finishes bitwise identical
to one that was never preempted.
"""

import json
import logging
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.model import SequentialSimCov
from repro.serve import BackgroundServer, ServeApp, ServeClient, ServeError
from repro.serve.jobs import JobSpec, stats_rows


def canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True)


def serve(**kwargs):
    kwargs.setdefault("port", 0)
    kwargs.setdefault("max_workers", 2)
    return BackgroundServer(ServeApp(**kwargs))


SPEC = {"config": "small_2d", "steps": 25, "seed": 4, "backend": "sequential"}


def reference_rows(spec_json):
    """The in-process ground truth for a solo sequential spec."""
    spec = JobSpec.from_json(
        {k: v for k, v in spec_json.items() if k != "backend"}
    )
    params, steps = spec.resolve_params()
    sim = SequentialSimCov(params, seed=spec.seed)
    sim.run(steps)
    return stats_rows(sim.series)


class TestSubmitAndResult:
    def test_served_result_bitwise_matches_inprocess(self):
        with serve() as app:
            client = ServeClient(port=app.port)
            resp = client.submit(SPEC)
            assert resp["cache"] == "miss"
            final = client.wait(resp["job"]["id"])
            assert final["state"] == "done"
            rows = client.result(resp["job"]["id"])["result"]["rows"]
        assert canonical(rows) == canonical(reference_rows(SPEC))

    def test_cache_hit_bitwise_identical(self):
        with serve() as app:
            client = ServeClient(port=app.port)
            cold = client.submit(SPEC)
            client.wait(cold["job"]["id"])
            cold_result = client.result(cold["job"]["id"])["result"]
            warm = client.submit(SPEC)
            assert warm["cache"] == "hit"
            assert warm["job"]["state"] == "done"  # instantly
            warm_result = client.result(warm["job"]["id"])["result"]
            assert canonical(warm_result) == canonical(cold_result)
            assert client.metrics()["cache_hits"] == 1

    def test_inflight_duplicates_join(self):
        with serve(max_workers=1) as app:
            client = ServeClient(port=app.port)
            long_spec = dict(SPEC, steps=300)
            first = client.submit(long_spec)
            second = client.submit(long_spec)
            assert second["cache"] == "join"
            assert second["job"]["id"] == first["job"]["id"]
            assert second["job"]["attached"] == 2
            client.wait(first["job"]["id"])

    def test_concurrent_burst_coalesces(self):
        """24 clients submit at once over 3 distinct specs: each spec runs
        exactly once (one miss), every other submission joins it in
        flight or hits its cached result, and all 24 results are bitwise
        their spec's in-process run."""
        specs = [dict(SPEC, steps=30, seed=seed) for seed in (11, 12, 13)]
        clients = 24
        start = threading.Barrier(clients)

        def submit(i):
            spec = specs[i % len(specs)]
            client = ServeClient(port=app.port)
            start.wait()
            resp = client.submit(spec)
            client.wait(resp["job"]["id"])
            rows = client.result(resp["job"]["id"])["result"]["rows"]
            return spec, resp["cache"], rows

        with serve(max_workers=1) as app:
            with ThreadPoolExecutor(clients) as pool:
                outcomes = list(pool.map(submit, range(clients)))
        dispositions = [cache for _, cache, _ in outcomes]
        assert dispositions.count("miss") == len(specs), dispositions
        assert set(dispositions) <= {"miss", "hit", "join"}, dispositions
        expected = [canonical(reference_rows(spec)) for spec in specs]
        for spec, _, rows in outcomes:
            assert canonical(rows) == expected[specs.index(spec)]

    def test_bad_spec_is_400(self):
        with serve() as app:
            client = ServeClient(port=app.port)
            with pytest.raises(ServeError) as exc:
                client.submit({"backend": "quantum"})
            assert exc.value.status == 400
            with pytest.raises(ServeError) as exc:
                client.submit({"stepz": 5})
            assert exc.value.status == 400

    def test_result_conflict_while_running(self):
        with serve(max_workers=1) as app:
            client = ServeClient(port=app.port)
            resp = client.submit(dict(SPEC, steps=400))
            with pytest.raises(ServeError) as exc:
                client.result(resp["job"]["id"])
            assert exc.value.status == 409
            client.wait(resp["job"]["id"])


def raw_request(port: int, head: str, body: bytes = b""):
    """One request written byte for byte (what ``ServeClient`` cannot
    send); returns ``(status, parsed JSON body)`` — or ``(None, None)``
    when the server closed the socket without answering."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(head.encode("latin1") + b"\r\n\r\n" + body)
        sock.shutdown(socket.SHUT_WR)
        reply = b""
        while chunk := sock.recv(65536):
            reply += chunk
    if not reply:
        return None, None
    head_bytes, _, payload = reply.partition(b"\r\n\r\n")
    return int(head_bytes.split()[1]), json.loads(payload)


class TestMalformedRequests:
    """The socket edge answers garbage with a typed 4xx — never by
    dropping the connection with a traceback in the loop's log."""

    SPEC_BODY = json.dumps({"steps": "x"}).encode()

    @pytest.mark.parametrize(
        "head, body, status, says",
        [
            ("POST /jobs HTTP/1.1\r\nContent-Length: abc", b"", 400, "Content-Length"),
            ("POST /jobs HTTP/1.1\r\nContent-Length: -4", b"", 400, "Content-Length"),
            (
                f"POST /jobs HTTP/1.1\r\nContent-Length: {len(SPEC_BODY)}",
                SPEC_BODY, 400, "mistyped job field",
            ),
            # Only the declared size is sent: the refusal must not wait
            # for (or read) a body.
            ("POST /jobs HTTP/1.1\r\nContent-Length: 1048577", b"", 413, "limit"),
            ("POST /jobs HTTP/1.1\r\nContent-Length: 10", b"{}", 400, "after 2 of the 10"),
        ],
        ids=[
            "length-not-a-number", "length-negative", "mistyped-field",
            "oversized", "truncated",
        ],
    )
    def test_typed_refusal_and_server_survives(
        self, head, body, status, says, caplog
    ):
        with caplog.at_level(logging.ERROR, logger="asyncio"), serve() as app:
            got, payload = raw_request(app.port, head, body)
            assert got == status
            assert says in payload["error"]
            assert ServeClient(port=app.port).healthz()["ok"] is True
            assert app.jobs == {}
        assert [r.getMessage() for r in caplog.records] == []

    def test_body_at_the_limit_is_read(self):
        from repro.serve.server import MAX_BODY_BYTES

        spec = json.dumps(dict(SPEC, steps=2)).encode()
        body = spec + b" " * (MAX_BODY_BYTES - len(spec))
        with serve() as app:
            got, payload = raw_request(
                app.port,
                f"POST /jobs HTTP/1.1\r\nContent-Length: {len(body)}", body,
            )
            assert got == 201 and payload["cache"] == "miss"
            ServeClient(port=app.port).wait(payload["job"]["id"])


class TestEvents:
    def test_sse_stream_replays_and_completes(self):
        with serve() as app:
            client = ServeClient(port=app.port)
            resp = client.submit(SPEC)
            client.wait(resp["job"]["id"])
            # Subscribe after the fact: full replay, then stream end.
            events = list(client.iter_events(resp["job"]["id"]))
        names = [name for name, _ in events]
        assert names[0] == "state"
        assert names[-1] == "done"
        steps = [data for name, data in events if name == "step"]
        assert len(steps) == SPEC["steps"]
        assert steps[0]["steps_done"] == 1
        assert steps[-1]["steps_done"] == SPEC["steps"]
        assert any(name == "telemetry" for name in names)

    def test_live_subscription_sees_steps(self):
        with serve(max_workers=1) as app:
            client = ServeClient(port=app.port)
            resp = client.submit(dict(SPEC, steps=120))
            seen = 0
            for name, _data in client.iter_events(resp["job"]["id"]):
                if name == "step":
                    seen += 1
            assert seen == 120


class TestPreemption:
    def test_high_priority_preempts_and_resume_is_bitwise(self):
        low_spec = dict(SPEC, steps=250, seed=7, priority=0)
        with serve(max_workers=1) as app:
            client = ServeClient(port=app.port)
            low = client.submit(low_spec)
            deadline = time.monotonic() + 10
            while client.status(low["job"]["id"])["state"] != "running":
                assert time.monotonic() < deadline
                time.sleep(0.01)
            high = client.submit(
                dict(SPEC, steps=10, seed=1, priority=5, client="urgent")
            )
            high_final = client.wait(high["job"]["id"])
            low_final = client.wait(low["job"]["id"])
            assert high_final["state"] == "done"
            assert low_final["state"] == "done"
            assert low_final["preemptions"] >= 1
            low_rows = client.result(low["job"]["id"])["result"]["rows"]
            metrics = client.metrics()
            assert metrics["preemptions"] >= 1
            assert metrics["resumes"] >= 1
        assert canonical(low_rows) == canonical(reference_rows(low_spec))

    def test_equal_priority_never_preempts(self):
        with serve(max_workers=1) as app:
            client = ServeClient(port=app.port)
            a = client.submit(dict(SPEC, steps=150, seed=2))
            b = client.submit(dict(SPEC, steps=5, seed=3))
            client.wait(a["job"]["id"])
            client.wait(b["job"]["id"])
            assert client.status(a["job"]["id"])["preemptions"] == 0


class TestCancel:
    def test_cancel_queued_job(self):
        with serve(max_workers=1) as app:
            client = ServeClient(port=app.port)
            running = client.submit(dict(SPEC, steps=200, seed=5))
            queued = client.submit(dict(SPEC, steps=200, seed=6))
            resp = client.cancel(queued["job"]["id"])
            assert resp["state"] == "cancelled"
            client.wait(running["job"]["id"])
            names = [n for n, _ in client.iter_events(queued["job"]["id"])]
            assert names[-1] == "done"

    def test_cancel_running_job(self):
        with serve(max_workers=1) as app:
            client = ServeClient(port=app.port)
            resp = client.submit(dict(SPEC, steps=2000, seed=5))
            deadline = time.monotonic() + 10
            while client.status(resp["job"]["id"])["state"] != "running":
                assert time.monotonic() < deadline
                time.sleep(0.01)
            client.cancel(resp["job"]["id"])
            final = client.wait(resp["job"]["id"])
            assert final["state"] == "cancelled"
            assert final["steps_done"] < 2000

    def test_cancel_done_job_conflicts(self):
        with serve() as app:
            client = ServeClient(port=app.port)
            resp = client.submit(SPEC)
            client.wait(resp["job"]["id"])
            with pytest.raises(ServeError) as exc:
                client.cancel(resp["job"]["id"])
            assert exc.value.status == 409


class TestEnsemble:
    def test_ensemble_members_bitwise_match_solo(self):
        spec = {"config": "small_2d", "steps": 12, "seed": 3,
                "backend": "ensemble", "ensemble": 3}
        with serve() as app:
            client = ServeClient(port=app.port)
            resp = client.submit(spec)
            client.wait(resp["job"]["id"])
            result = client.result(resp["job"]["id"])["result"]
        assert result["kind"] == "ensemble"
        assert result["seeds"] == [3, 4, 5]
        for seed, rows in zip(result["seeds"], result["members"]):
            solo = reference_rows(
                {"config": "small_2d", "steps": 12, "seed": seed}
            )
            assert canonical(rows) == canonical(solo)


class TestDiskCache:
    def test_cache_survives_server_restart(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        with serve(cache_dir=cache_dir) as app:
            client = ServeClient(port=app.port)
            resp = client.submit(SPEC)
            client.wait(resp["job"]["id"])
            cold = client.result(resp["job"]["id"])["result"]
        with serve(cache_dir=cache_dir) as app:
            client = ServeClient(port=app.port)
            warm = client.submit(SPEC)
            assert warm["cache"] == "hit"
            assert canonical(
                client.result(warm["job"]["id"])["result"]
            ) == canonical(cold)
