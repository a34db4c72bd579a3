"""/metrics, /metrics.json and /healthz over real HTTP.

The Prometheus exposition is parsed line by line (a malformed sample is
exactly the failure a scraper would hit), and the health payload must
carry live scheduler/worker-pool state, not a bare 200.
"""

import http.client

import pytest

from repro.obs.prometheus import CONTENT_TYPE
from repro.obs.registry import MetricsRegistry, set_registry
from repro.serve import BackgroundServer, ServeApp, ServeClient

SPEC = {"config": "small_2d", "steps": 10, "seed": 4, "backend": "sequential"}


@pytest.fixture(autouse=True)
def _fresh_registry():
    """Exact-count assertions need a registry other tests haven't fed —
    the server binds the global registry at construction time."""
    prev = set_registry(MetricsRegistry())
    yield
    set_registry(prev)


def serve(**kwargs):
    kwargs.setdefault("port", 0)
    kwargs.setdefault("max_workers", 2)
    return BackgroundServer(ServeApp(**kwargs))


def parse_prometheus(text):
    """{name_or_series: value} for every sample line; asserts shape."""
    samples = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            if line.startswith("#"):
                assert line.startswith(("# HELP ", "# TYPE "))
            continue
        series, _, value = line.rpartition(" ")
        assert series, f"malformed sample line: {line!r}"
        samples[series] = float(value)
    return samples


class TestMetricsEndpoint:
    def test_prometheus_text_after_traffic(self):
        with serve() as app:
            client = ServeClient(port=app.port)
            first = client.submit(SPEC)
            client.wait(first["job"]["id"])
            warm = client.submit(SPEC)
            assert warm["cache"] == "hit"
            samples = parse_prometheus(client.metrics_text())
        assert samples["simcov_serve_submitted_total"] == 2
        assert samples["simcov_serve_cache_hits_total"] == 1
        assert samples["simcov_serve_cache_misses_total"] == 1
        assert samples["simcov_serve_completed_total"] == 1
        assert samples["simcov_serve_max_workers"] == 2
        assert samples["simcov_serve_queue_depth"] == 0
        assert samples["simcov_serve_cache_entries"] == 1
        # The latency histogram: 2 observations (cold wait + hit at 0s),
        # with the full cumulative ladder present.
        assert (
            samples["simcov_serve_submit_to_first_event_seconds_count"] == 2
        )
        assert (
            samples['simcov_serve_submit_to_first_event_seconds_bucket'
                    '{le="+Inf"}'] == 2
        )

    def test_content_type_is_prometheus(self):
        with serve() as app:
            conn = http.client.HTTPConnection("127.0.0.1", app.port,
                                              timeout=10)
            try:
                conn.request("GET", "/metrics")
                resp = conn.getresponse()
                assert resp.status == 200
                assert resp.getheader("Content-Type") == CONTENT_TYPE
                resp.read()
            finally:
                conn.close()

    def test_engine_metrics_share_the_exposition(self):
        """Jobs run in-process, so engine families (steps, phases) land
        in the same scrape as the serve families."""
        with serve() as app:
            client = ServeClient(port=app.port)
            resp = client.submit(SPEC)
            client.wait(resp["job"]["id"])
            text = client.metrics_text()
        assert "simcov_steps_total" in text
        assert 'simcov_phase_seconds_bucket{phase="diffuse"' in text

    def test_json_metrics_still_served(self):
        with serve() as app:
            client = ServeClient(port=app.port)
            resp = client.submit(SPEC)
            client.wait(resp["job"]["id"])
            payload = client.metrics()
        assert payload["submitted"] == 1
        assert payload["completed"] == 1
        assert "wait_p99_seconds" in payload

    def test_queue_wait_store_stays_bounded(self):
        """/metrics.json's p50/p99 read the newest WAIT_SAMPLES queue
        waits: every wait below the cap, a bounded window above it."""
        from repro.serve.server import WAIT_SAMPLES

        app = ServeApp(port=0)
        app.wait_seconds.extend(i / 100 for i in range(100))
        payload = app.metrics_payload()
        assert payload["wait_p50_seconds"] == 0.5
        assert payload["wait_p99_seconds"] == 0.99
        app.wait_seconds.extend([7.0] * WAIT_SAMPLES)
        assert len(app.wait_seconds) == WAIT_SAMPLES
        assert app.metrics_payload()["wait_p50_seconds"] == 7.0


class TestHealthz:
    def test_health_payload_carries_pool_state(self):
        with serve() as app:
            client = ServeClient(port=app.port)
            health = client.healthz()
            assert health["ok"] is True
            sched = health["scheduler"]
            assert sched["max_workers"] == 2
            assert sched["busy_workers"] == 0
            assert sched["queue_depth"] == 0
            assert health["uptime_seconds"] >= 0.0
            assert health["jobs"] == {}

            resp = client.submit(SPEC)
            client.wait(resp["job"]["id"])
            health = client.healthz()
            assert health["jobs"] == {"done": 1}


class TestPreemptionCounters:
    def test_preemption_visible_in_scrape(self):
        with serve(max_workers=1) as app:
            client = ServeClient(port=app.port)
            low = client.submit(dict(SPEC, steps=1200, priority=0))
            high = client.submit(
                dict(SPEC, steps=10, seed=9, priority=9)
            )
            client.wait(high["job"]["id"])
            client.wait(low["job"]["id"], timeout=180.0)
            samples = parse_prometheus(client.metrics_text())
        assert samples["simcov_serve_preemptions_total"] >= 1
        assert samples["simcov_serve_resumes_total"] >= 1


@pytest.mark.parametrize("fmt,first_char", [("jsonl", "{"), ("chrome", "{")])
def test_trace_format_plumbed(tmp_path, fmt, first_char):
    path = tmp_path / f"serve-trace.{fmt}"
    with serve(trace_path=str(path), trace_format=fmt) as app:
        client = ServeClient(port=app.port)
        resp = client.submit(SPEC)
        client.wait(resp["job"]["id"])
    text = path.read_text()
    assert text.lstrip().startswith(first_char)
    if fmt == "jsonl":
        import json

        kinds = [json.loads(ln)["kind"] for ln in text.splitlines() if ln]
        # A trace carries spans only: the registry is GET /metrics.
        assert kinds[0] == "meta"
        assert set(kinds[1:]) == {"span"}
