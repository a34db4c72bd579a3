"""Report/summarizer tests on synthetic event streams."""

import pytest

from repro.telemetry import Event, SPAN, format_report, load_events, summarize


def phase(name, dur, rank=0, step=0, skipped=False):
    attrs = {"skipped": True} if skipped else {}
    return Event(SPAN, name, 0.0, dur=dur, cat="phase", rank=rank, step=step,
                 attrs=attrs)


def barrier(name, dur, rank=0, step=0, **attrs):
    return Event(SPAN, name, 0.0, dur=dur, cat="barrier", rank=rank,
                 step=step, attrs=attrs)


class TestSummarize:
    def test_phases_sorted_by_total_seconds(self):
        s = summarize([
            phase("cheap", 0.1),
            phase("hot", 1.0),
            phase("hot", 1.0),
            phase("skippy", 0.0, skipped=True),
        ])
        assert list(s["phases"]) == ["hot", "cheap", "skippy"]
        assert s["phases"]["hot"] == {
            "seconds": pytest.approx(2.0),
            "calls": 2,
            "skips": 0,
            "mean_seconds": pytest.approx(1.0),
        }
        assert s["phases"]["skippy"]["skips"] == 1

    def test_barrier_histogram_buckets(self):
        s = summarize([
            barrier("open_exchange", 5e-6),
            barrier("open_exchange", 5e-4),
            barrier("step_start", 5e-2),
        ])
        counts = {
            (row["lo"], row["hi"]): row["count"]
            for row in s["barrier_histogram"]
        }
        assert counts[(0.0, 1e-5)] == 1
        assert counts[(1e-4, 1e-3)] == 1
        assert counts[(1e-2, 1e-1)] == 1
        assert s["barrier_waits"] == 3
        assert s["barrier_total_seconds"] == pytest.approx(5e-6 + 5e-4 + 5e-2)

    def test_busy_subtracts_only_in_phase_barriers(self):
        """Phase barriers nest inside exchange spans; step barriers don't."""
        s = summarize([
            phase("open_exchange", 0.5, rank=0),
            barrier("open_exchange", 0.4, rank=0),   # inside the phase span
            barrier("step_start", 10.0, rank=0),     # outside every phase
        ])
        row = s["per_rank"][0]
        assert row["phase_seconds"] == pytest.approx(0.5)
        assert row["barrier_seconds"] == pytest.approx(10.4)
        assert row["busy_seconds"] == pytest.approx(0.1)

    def test_coordinator_step_end_marked_in_phase(self):
        """The dist coordinator's step_end wait nests inside its reduce
        phase span, flagged via the in_phase attribute."""
        s = summarize([
            phase("reduce", 1.0, rank=-1),
            barrier("step_end", 0.9, rank=-1, in_phase=True),
        ])
        assert s["per_rank"][-1]["busy_seconds"] == pytest.approx(0.1)

    def test_imbalance_over_worker_lanes_only(self):
        s = summarize([
            phase("intents", 3.0, rank=0),
            phase("intents", 1.0, rank=1),
            phase("reduce", 100.0, rank=-1),  # control plane: excluded
        ])
        assert s["imbalance"] == pytest.approx(1.5)

    def test_step_count(self):
        s = summarize([phase("a", 0.1, step=t) for t in range(7)])
        assert s["steps"] == 7


def drain(step=0, imbalance=0.0, dropped=(0, 0)):
    """The dist coordinator's per-step ring-drain span."""
    return Event(SPAN, "drain", 0.0, dur=1e-4, cat="telemetry", rank=-1,
                 step=step,
                 attrs={"imbalance": imbalance, "dropped": list(dropped)})


class TestDroppedEvents:
    def test_summarize_keeps_max_per_rank(self):
        """Drain spans carry cumulative per-rank drop counts; the report
        keeps the high-water mark per rank and hides zero rows."""
        s = summarize([
            drain(step=0, dropped=(0, 3)),
            drain(step=1, dropped=(0, 7)),
            phase("diffuse", 0.1),
        ])
        assert s["dropped"] == {1: 7}

    def test_loud_warning_in_report(self):
        text = format_report(summarize([
            drain(dropped=(0, 0, 42)),
            phase("diffuse", 0.1),
        ]))
        assert "WARNING: DROPPED 42 events (rank 2)" in text
        assert "undercount" in text
        # Drain spans never leak into the step/phase tables.
        assert text.index("WARNING") < text.index("trace:")
        assert "drain" not in text

    def test_no_warning_when_nothing_dropped(self):
        text = format_report(summarize([phase("diffuse", 0.1)]))
        assert "DROPPED" not in text


class TestImbalancePanel:
    def test_series_collected_from_drain_spans(self):
        s = summarize([
            drain(step=0, imbalance=0.5),
            drain(step=1, imbalance=1.5),
            phase("diffuse", 0.1),
        ])
        assert s["imbalance_series"] == [(0, 0.5), (1, 1.5)]

    def test_panel_rendered_with_bars_and_peak(self):
        events = [phase("diffuse", 0.1)] + [
            drain(step=t, imbalance=0.1 * t) for t in range(10)
        ]
        text = format_report(summarize(events))
        assert "imbalance over time" in text
        assert "peak 0.900 over 10 samples" in text
        assert "|" in text and "#" in text

    def test_long_series_downsampled(self):
        events = [drain(step=t, imbalance=1.0) for t in range(500)]
        text = format_report(summarize(events))
        panel_rows = [ln for ln in text.splitlines()
                      if ln.strip().startswith("step ")]
        assert 0 < len(panel_rows) <= 24
        assert "over 500 samples" in text

    def test_no_panel_without_series(self):
        text = format_report(summarize([phase("diffuse", 0.1)]))
        assert "imbalance over time" not in text


class TestResilienceFromSpans:
    def test_parent_format_jsonl_counts_from_recovery_spans(self, tmp_path):
        """A trace written when traces still held counters and gauges
        loads with those lines skipped; restarts and replayed steps come
        from its recovery span."""
        path = tmp_path / "old.jsonl"
        path.write_text("\n".join([
            '{"kind": "meta", "host": "vm"}',
            '{"kind": "counter", "name": "restarts", "ts": 1.0, "value": 1}',
            '{"kind": "gauge", "name": "imbalance_index", "ts": 1.0, "value": 0}',
            '{"kind": "span", "name": "recovery", "ts": 1.0, "dur": 0.0, "cat":'
            ' "resilience", "rank": -1, "step": 12, "attrs": {"error": "Worker'
            'FailedError", "steps_replayed": 2, "nranks_before": 4, '
            '"nranks_after": 4}}',
        ]))
        events = load_events(path)
        assert [e.name for e in events] == ["recovery"]
        text = format_report(summarize(events))
        assert "resilience: 1 restart, 2 steps replayed" in text
        assert "incident 1: WorkerFailedError at step 12 (4 ranks" in text


class TestFormatReport:
    def test_renders_all_sections(self):
        text = format_report(summarize([
            phase("diffuse", 0.5, rank=0, step=0),
            barrier("open_exchange", 0.01, rank=0),
        ]))
        assert "top phases" in text
        assert "mean_seconds" in text
        assert "barrier waits: 1" in text
        assert "per-rank" in text
        assert "imbalance" in text
        assert "diffuse" in text

    def test_meta_header_line(self):
        summary = summarize([phase("diffuse", 0.5)])
        text = format_report(
            summary, meta={"host": "vm", "cpu_count": 2, "git_sha": "abc123"}
        )
        assert text.splitlines()[0] == "run: host=vm cpus=2 git=abc123"
        assert "trace:" in text

    def test_no_meta_no_header(self):
        text = format_report(summarize([phase("diffuse", 0.5)]))
        assert not text.startswith("run:")
