"""Trace summarizer behind ``simcov-repro trace report``.

Reads a trace written by either sink format (JSONL or Chrome trace
JSON — the format is sniffed, not flagged) and prints the three views
the paper's performance story needs:

- **top phases** — total/mean wall seconds per phase name, descending,
  the Fig 4-style attribution table;
- **barrier-wait histogram** — distribution of ``cat="barrier"`` span
  durations, the dist runtime's synchronization cost at a glance;
- **per-rank imbalance** — per-rank phase vs. barrier-wait seconds and
  the max/mean busy ratio, the load-balance check behind the scaling
  figures.  Busy subtracts only the *phase* barriers (which nest inside
  exchange-phase spans, so their wait is part of phase time); the
  ``step_start``/``step_end`` barriers sit outside every phase and only
  count toward the rank's total barrier seconds.
"""

from __future__ import annotations

import json

from repro.telemetry.events import SPAN, Event
from repro.telemetry.sinks import read_jsonl, read_meta


def load_meta(path) -> dict | None:
    """Run-metadata header of a trace file, either format (or None)."""
    with open(path) as fh:
        text = fh.read()
    try:
        payload = json.loads(text)
    except json.JSONDecodeError:
        payload = None
    if isinstance(payload, dict) and "traceEvents" in payload:
        return payload.get("otherData")
    return read_meta(path)


def load_events(path) -> list[Event]:
    """Load a trace file, auto-detecting JSONL vs Chrome-trace JSON.

    Both formats start with ``{``, so the sniff is structural: a file
    that parses as one JSON document carrying ``traceEvents`` is a
    Chrome trace; anything else is treated as JSONL (one event per
    line).
    """
    with open(path) as fh:
        text = fh.read()
    try:
        payload = json.loads(text)
    except json.JSONDecodeError:
        payload = None
    if isinstance(payload, dict) and "traceEvents" in payload:
        return _from_chrome(payload)
    return read_jsonl(path)


def _from_chrome(payload: dict) -> list[Event]:
    events = []
    for rec in payload.get("traceEvents", []):
        if rec.get("ph") != "X":
            continue
        args = rec.get("args", {})
        events.append(
            Event(
                SPAN, rec["name"], rec["ts"] / 1e6,
                dur=rec.get("dur", 0.0) / 1e6,
                cat=rec.get("cat", ""), rank=int(rec.get("pid", 0)),
                step=int(args.get("step", -1)),
                attrs={k: v for k, v in args.items() if k != "step"},
            )
        )
    return events


def summarize(events: list[Event]) -> dict:
    """Aggregate a trace into the report's three tables."""
    from repro.engine.metrics import PhaseMetrics  # repro.engine imports us

    phases = PhaseMetrics()
    barrier_durs: list[float] = []
    ranks: dict[int, dict] = {}
    steps = set()
    resilience = {
        "restarts": 0,
        "steps_replayed": 0,
        "checkpoints": 0,
        "recovery_seconds": 0.0,
        "incidents": [],
    }
    dropped: dict[int, int] = {}
    imbalance_series: list[tuple[int, float]] = []
    for e in events:
        if e.step >= 0:
            steps.add(e.step)
        if e.cat == "telemetry" and e.name == "drain":
            # The dist coordinator's per-step ring drain: the step's
            # imbalance index, and each rank's cumulative ring-overflow
            # count (keep the max).
            imbalance_series.append((e.step, float(e.attrs["imbalance"])))
            for rank, n in enumerate(e.attrs.get("dropped", ())):
                dropped[rank] = max(dropped.get(rank, 0), int(n))
            continue
        if e.cat == "resilience":
            if e.name == "checkpoint":
                resilience["checkpoints"] += 1
            elif e.name == "recovery":
                replayed = e.attrs.get("steps_replayed")
                resilience["restarts"] += 1
                resilience["steps_replayed"] += int(replayed or 0)
                resilience["recovery_seconds"] += e.dur
                resilience["incidents"].append(
                    {
                        "step": e.step,
                        "seconds": e.dur,
                        "error": e.attrs.get("error", "?"),
                        "nranks_before": e.attrs.get("nranks_before"),
                        "nranks_after": e.attrs.get("nranks_after"),
                        "steps_replayed": replayed,
                        # Serve-tier incidents carry a job id, not ranks.
                        "job": e.attrs.get("job"),
                    }
                )
            continue
        per_rank = ranks.setdefault(
            e.rank,
            {
                "phase_seconds": 0.0,
                "barrier_seconds": 0.0,
                "_waited_in_phase": 0.0,
            },
        )
        if e.cat == "phase":
            phases.record(e.name, e.dur, bool(e.attrs.get("skipped")))
            per_rank["phase_seconds"] += e.dur
        elif e.cat == "barrier":
            barrier_durs.append(e.dur)
            per_rank["barrier_seconds"] += e.dur
            if (
                e.name not in ("step_start", "step_end")
                or e.attrs.get("in_phase")
            ):
                per_rank["_waited_in_phase"] += e.dur
    busy = {
        r: v["phase_seconds"] - v.pop("_waited_in_phase")
        for r, v in ranks.items()
    }
    # Imbalance covers compute lanes only — negative ranks are
    # control-plane (the dist coordinator) and would skew the ratio.
    workers = {r: b for r, b in busy.items() if r >= 0} or busy
    imbalance = 0.0
    if workers:
        mean = sum(workers.values()) / len(workers)
        if mean > 0:
            imbalance = max(workers.values()) / mean
    return {
        "events": len(events),
        "steps": len(steps),
        "phases": dict(
            sorted(phases.summary().items(), key=lambda kv: -kv[1]["seconds"])
        ),
        "barrier_histogram": _histogram(barrier_durs),
        "barrier_total_seconds": sum(barrier_durs),
        "barrier_waits": len(barrier_durs),
        "per_rank": {
            r: {**ranks[r], "busy_seconds": busy[r]} for r in sorted(ranks)
        },
        "imbalance": imbalance,
        "imbalance_series": imbalance_series,
        "dropped": {r: n for r, n in sorted(dropped.items()) if n > 0},
        "resilience": resilience,
    }


#: Barrier-wait histogram bucket edges (seconds).
_BUCKETS = (1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0)


def _histogram(durs: list[float]) -> list[dict]:
    edges = (0.0, *_BUCKETS, float("inf"))
    rows = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        n = sum(1 for d in durs if lo <= d < hi)
        if n or hi != float("inf"):
            rows.append({"lo": lo, "hi": hi, "count": n})
    return rows


def _imbalance_panel(series: list[tuple[int, float]], width: int = 40,
                     max_rows: int = 24) -> list[str]:
    """ASCII imbalance-over-time: one bar per (downsampled) step window.

    The signal ROADMAP open item 5's dynamic re-decomposition will
    trigger on — a run where one rank owns the infection focus shows a
    sustained high band here.
    """
    if not series:
        return []
    # Downsample by averaging fixed-size step windows so long runs fit.
    stride = max(1, (len(series) + max_rows - 1) // max_rows)
    rows = []
    for i in range(0, len(series), stride):
        chunk = series[i:i + stride]
        step = chunk[0][0]
        val = sum(v for _, v in chunk) / len(chunk)
        rows.append((step, val))
    peak = max(v for _, v in rows)
    scale = width / peak if peak > 0 else 0.0
    lines = ["", "imbalance over time (index = max/mean busy - 1)"]
    for step, val in rows:
        bar = "#" * max(0, round(val * scale))
        lines.append(f"  step {step:>6} |{bar:<{width}}| {val:.3f}")
    lines.append(f"  peak {peak:.3f} over {len(series)} samples")
    return lines


def format_report(summary: dict, meta: dict | None = None) -> str:
    """Aligned text rendering of :func:`summarize`."""
    lines = []
    if meta:
        from repro.obs.runmeta import format_meta

        lines.append(f"run: {format_meta(meta)}")
    for rank, n in summary.get("dropped", {}).items():
        lines.append(
            f"WARNING: DROPPED {n} events (rank {rank}) — telemetry ring "
            "overflowed; totals below undercount this rank"
        )
    lines += [
        f"trace: {summary['events']} events over {summary['steps']} steps",
        "",
        "top phases",
        f"  {'phase':<24}{'calls':>7}{'skips':>7}{'seconds':>12}{'mean_seconds':>14}",
    ]
    for name, row in summary["phases"].items():
        lines.append(
            f"  {name:<24}{row['calls']:>7}{row['skips']:>7}"
            f"{row['seconds']:>12.4f}{row['mean_seconds']:>14.6f}"
        )
    lines += [
        "",
        f"barrier waits: {summary['barrier_waits']} totaling "
        f"{summary['barrier_total_seconds']:.4f}s",
    ]
    for b in summary["barrier_histogram"]:
        hi = "inf" if b["hi"] == float("inf") else f"{b['hi']:g}"
        lines.append(f"  [{b['lo']:g}s, {hi}s): {b['count']}")
    lines += ["", "per-rank"]
    lines.append(
        f"  {'rank':<6}{'phase_s':>10}{'barrier_s':>11}{'busy_s':>10}"
    )
    for rank, row in summary["per_rank"].items():
        lines.append(
            f"  {rank:<6}{row['phase_seconds']:>10.4f}"
            f"{row['barrier_seconds']:>11.4f}{row['busy_seconds']:>10.4f}"
        )
    lines.append(f"  imbalance (max/mean busy): {summary['imbalance']:.3f}")
    lines += _imbalance_panel(summary.get("imbalance_series", []))
    res = summary.get("resilience", {})
    if res.get("restarts") or res.get("incidents"):
        lines += [
            "",
            f"resilience: {res['restarts']} restart"
            f"{'s' if res['restarts'] != 1 else ''}, "
            f"{res['steps_replayed']} steps replayed, "
            f"{res['recovery_seconds']:.3f}s recovering "
            f"({res['checkpoints']} shadow checkpoints)",
        ]
        for i, inc in enumerate(res["incidents"], 1):
            if inc.get("nranks_after") is not None:
                # Dist-tier incident: rank count before/after recovery.
                origin_note = (
                    f"{inc['nranks_before']} -> {inc['nranks_after']} ranks"
                    if inc["nranks_before"] != inc["nranks_after"]
                    else f"{inc['nranks_after']} ranks"
                )
            elif inc.get("job") is not None:
                # Serve-tier incident: which job's attempt failed.
                origin_note = f"job {inc['job']}"
            else:
                origin_note = "origin unknown"
            lines.append(
                f"  incident {i}: {inc['error']} at step {inc['step']} "
                f"({origin_note}, replayed {inc['steps_replayed']} steps, "
                f"{inc['seconds']:.3f}s)"
            )
    return "\n".join(lines)
