"""Job model: what a client submits and what the server tracks.

A :class:`JobSpec` is the wire-level request — a named run config plus
parameter overrides, seed, steps, backend and priority.  It resolves to
concrete :class:`~repro.core.params.SimCovParams` through the run-config
registry, and to a **canonical result-cache key** through the typed
params codec (:func:`repro.io.checkpoint.encode_params`): two requests
share a key iff every parameter field, the seed set and the step count
agree.  The backend is deliberately *not* part of the key — every
backend (sequential, dist at any rank count, ensemble members)
produces bitwise-identical stats for the same ``(params, seed, steps)``,
which is what makes the result cache correct rather than approximate
(DESIGN.md §4e).

A :class:`Job` is the server-side record: spec + resolved params, the
lifecycle state machine, accumulated per-step stats rows, the SSE event
log every subscriber replays, and — for preempted jobs — the shadow
snapshot the resumed segment restores from.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import time
from dataclasses import dataclass, field, fields as dc_fields

import numpy as np

from repro.core.params import SimCovParams
from repro.io.checkpoint import encode_params

#: Job lifecycle states.
QUEUED = "queued"
RUNNING = "running"
PREEMPTED = "preempted"  # transient: snapshotted, back in the queue
RETRYING = "retrying"  # transient: failed attempt, parked in backoff
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

#: States from which a job can still produce a result (in-flight dedup
#: joins attach to jobs in these states).
ACTIVE_STATES = (QUEUED, RUNNING, PREEMPTED, RETRYING)

#: Priority range, inclusive; higher runs earlier (and may preempt).
MIN_PRIORITY, MAX_PRIORITY = 0, 9

#: Backend names of earlier releases.  Both ran the single-block stepper,
#: so a journaled job that names one replays on ``sequential``.
LEGACY_BACKENDS = {"cpu": "sequential", "gpu": "sequential"}


class SpecError(ValueError):
    """A submitted job spec is malformed (HTTP 400)."""


@dataclass(frozen=True)
class JobSpec:
    """A validated submission request."""

    config: str | None = None
    overrides: dict = field(default_factory=dict)
    dim: tuple[int, ...] | None = None
    steps: int | None = None
    seed: int = 0
    backend: str = "sequential"
    ensemble: int | None = None
    nranks: int = 2
    priority: int = 0
    client: str = "anonymous"
    #: Wall-seconds budget from submission; the server's watchdog
    #: preempts-then-fails the job once exceeded (None = no deadline).
    #: Scheduling metadata like priority/client: NOT part of the cache
    #: signature — the result of a run does not depend on its deadline.
    deadline_s: float | None = None

    @classmethod
    def from_json(cls, raw: dict) -> "JobSpec":
        """Build from a request body, rejecting unknown/invalid fields."""
        if not isinstance(raw, dict):
            raise SpecError("job spec must be a JSON object")
        known = {f.name for f in dc_fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise SpecError(
                f"unknown job fields {sorted(unknown)}; known: {sorted(known)}"
            )
        backend = str(raw.get("backend", "sequential"))
        try:
            spec = cls(
                config=raw.get("config"),
                overrides=dict(raw.get("overrides") or {}),
                dim=tuple(raw["dim"]) if raw.get("dim") else None,
                steps=None if raw.get("steps") is None else int(raw["steps"]),
                seed=int(raw.get("seed", 0)),
                backend=LEGACY_BACKENDS.get(backend, backend),
                ensemble=(
                    None if raw.get("ensemble") is None
                    else int(raw["ensemble"])
                ),
                nranks=int(raw.get("nranks", 2)),
                priority=int(raw.get("priority", 0)),
                client=str(raw.get("client", "anonymous")),
                deadline_s=(
                    None if raw.get("deadline_s") is None
                    else float(raw["deadline_s"])
                ),
            )
        except (TypeError, ValueError) as err:  # {"steps": "x"}, {"dim": 3}
            raise SpecError(f"mistyped job field: {err}") from None
        spec.validate()
        return spec

    def validate(self) -> None:
        # The backends a job may request are the drivers there are; read
        # here, not at import: a client needs this module, not the engine.
        from repro.engine.driver import DRIVERS

        if self.backend not in DRIVERS:
            raise SpecError(
                f"unknown backend {self.backend!r}; choose from {tuple(DRIVERS)}"
            )
        if not MIN_PRIORITY <= self.priority <= MAX_PRIORITY:
            raise SpecError(
                f"priority must be in [{MIN_PRIORITY}, {MAX_PRIORITY}], "
                f"got {self.priority}"
            )
        if self.steps is not None and self.steps < 1:
            raise SpecError(f"steps must be >= 1, got {self.steps}")
        if self.ensemble is not None:
            if self.backend != "ensemble":
                raise SpecError(
                    "'ensemble' member count requires backend='ensemble'"
                )
            if self.ensemble < 1:
                raise SpecError(
                    f"ensemble must be >= 1, got {self.ensemble}"
                )
        if self.backend == "ensemble" and self.ensemble is None:
            raise SpecError("backend='ensemble' needs an 'ensemble' count")
        if self.backend == "dist" and self.nranks < 1:
            raise SpecError(f"nranks must be >= 1, got {self.nranks}")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise SpecError(
                f"deadline_s must be > 0, got {self.deadline_s}"
            )

    # -- resolution ----------------------------------------------------------

    def resolve_params(self) -> tuple[SimCovParams, int]:
        """The concrete ``(params, steps)`` this spec runs.

        ``params.num_steps`` is normalized to the resolved step count so
        the cache key never distinguishes a spec that sets ``steps``
        from one that inherits the same value from its config.
        """
        from repro.experiments.configs import get_run_config

        config = None
        if self.config is not None:
            try:
                config = get_run_config(self.config)
            except ValueError as err:
                raise SpecError(str(err)) from None
        dim = self.dim or (config.dim if config else (64, 64))
        steps = self.steps if self.steps is not None else (
            config.steps if config else 50
        )
        num_infections = config.num_infections if config else 2
        params = SimCovParams.fast_test(
            dim=dim, num_infections=num_infections, num_steps=steps,
        )
        if self.overrides:
            params = apply_overrides(params, self.overrides)
        if params.num_steps != steps:
            # An explicit num_steps override wins over config/steps.
            steps = params.num_steps
        return params, steps

    def seeds(self) -> tuple[int, ...]:
        """The member seed set (one seed unless an ensemble)."""
        if self.backend == "ensemble":
            return tuple(range(self.seed, self.seed + self.ensemble))
        return (self.seed,)

    def cache_signature(self) -> str:
        """Canonical string for the *resolution* of this spec: every
        field that feeds ``resolve_params``/``result_cache_key`` and
        nothing else (client and priority change scheduling, not the
        result).  The server memoizes resolution on this, so a thousand
        identical submits pay for one params construction, not one each.
        """
        return json.dumps(
            [
                self.config, sorted(self.overrides.items()),
                self.dim, self.steps, self.seed, self.backend,
                self.ensemble,
            ],
            default=str,
        )

    def to_json(self) -> dict:
        return {
            "config": self.config,
            "overrides": dict(self.overrides),
            "dim": list(self.dim) if self.dim else None,
            "steps": self.steps,
            "seed": self.seed,
            "backend": self.backend,
            "ensemble": self.ensemble,
            "nranks": self.nranks,
            "priority": self.priority,
            "client": self.client,
            "deadline_s": self.deadline_s,
        }


def apply_overrides(params: SimCovParams, overrides: dict) -> SimCovParams:
    """Apply client parameter overrides with declared-type coercion.

    Same coercion rule as :func:`repro.engine.ensemble.expand_sweep`:
    integer fields round, float fields cast; unknown names raise a
    :class:`SpecError` listing the valid fields.
    """
    valid = {f.name: getattr(params, f.name) for f in dc_fields(params)}
    converted = {}
    for key, value in overrides.items():
        if key not in valid:
            raise SpecError(
                f"unknown override {key!r}; valid: {', '.join(sorted(valid))}"
            )
        current = valid[key]
        if key == "dim":
            converted[key] = tuple(int(v) for v in value)
        elif isinstance(current, bool):  # no bool params today; guard anyway
            converted[key] = bool(value)
        elif isinstance(current, int):
            converted[key] = int(round(float(value)))
        elif isinstance(current, float):
            converted[key] = float(value)
        elif current is None:  # optional int fields (antiviral_start, ...)
            converted[key] = None if value is None else int(round(float(value)))
        else:  # pragma: no cover - no other field types exist
            converted[key] = value
    try:
        return params.with_(**converted)
    except (ValueError, TypeError) as err:
        raise SpecError(f"invalid override: {err}") from None


def result_cache_key(params: SimCovParams, seeds, steps: int) -> str:
    """The canonical cache key of a deterministic run.

    Built on the typed field codec (:func:`encode_params`, format v2):
    every params field enters through its declared type, so numpy scalars
    and equal-valued ints/floats from different sources collapse to one
    key, and any single-field change produces a different key (the
    codec's JSON is sorted and exact).  Seeds and steps are appended
    explicitly; the executing backend is *not* keyed — bitwise
    determinism across backends is what makes the cache correct.
    """
    payload = json.dumps(
        {
            "params": encode_params(params),
            "seeds": [int(s) for s in np.atleast_1d(seeds)],
            "steps": int(steps),
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


_JOB_SEQ = itertools.count()


@dataclass
class Job:
    """Server-side record of one submitted run."""

    id: str
    spec: JobSpec
    params: SimCovParams
    steps: int
    cache_key: str
    seq: int = field(default_factory=lambda: next(_JOB_SEQ))
    state: str = QUEUED
    submitted_at: float = field(default_factory=time.time)
    started_at: float | None = None
    finished_at: float | None = None
    #: Steps completed across all segments (resumes continue from here).
    steps_done: int = 0
    #: Times this job was preempted (snapshot + requeue).
    preemptions: int = 0
    #: Whether the result came from the cache ("hit"), an in-flight join
    #: ("join"), or a fresh run ("miss").
    cache: str = "miss"
    #: Per-step stats rows accumulated across segments (solo backends) or
    #: per-member row lists (ensemble).
    result: dict | None = None
    error: str | None = None
    #: In-memory shadow snapshot a resumed segment restores from.
    snapshot: dict | None = None
    #: Clients subscribed/attached (join dedup bumps this).
    attached: int = 1
    #: Per-step stats rows accumulated across *all* segments (a resumed
    #: sim's own series only holds the final segment's steps).
    rows: list = field(default_factory=list)
    #: While a segment runs: the live sim's ``request_preempt`` bound
    #: method (installed/cleared by the runner; called by the scheduler).
    preempt_hook: object = None
    #: Set by the scheduler when it wants this job preempted but the
    #: segment has not installed its hook yet (the runner re-checks this
    #: right after installing, closing the startup race).
    preempt_requested: bool = False
    #: Per-attempt failure diagnostics (repro.resilience.JobIncident).
    incidents: list = field(default_factory=list)
    #: On-disk checkpoint to resume from when no in-memory snapshot
    #: exists (journal replay after a server restart).
    resume_checkpoint: str | None = None
    #: The deadline watchdog preempted this job; the returning segment
    #: is converted to a deadline failure instead of a requeue.
    deadline_expired: bool = False
    #: ``time.monotonic()`` of the segment's last step boundary (the
    #: hung-worker detector's signal).
    last_heartbeat: float | None = None
    #: Bumped whenever the server abandons a segment (hang reclaim);
    #: stale worker threads compare their captured generation and
    #: become no-ops instead of corrupting job state.
    generation: int = 0
    #: Optional ServeFaultSpec targeted at this job (chaos testing).
    fault: object = None
    #: Whether transitions are journaled (cold jobs under --journal-dir).
    journaled: bool = False
    #: ``steps_done``/``len(rows)`` at the current segment's start — the
    #: rollback point when the hang detector abandons the segment.
    segment_start_steps: int = 0
    segment_start_rows: int = 0

    def summary(self) -> dict:
        """The status JSON served for this job."""
        return {
            "id": self.id,
            "state": self.state,
            "cache": self.cache,
            "priority": self.spec.priority,
            "client": self.spec.client,
            "backend": self.spec.backend,
            "steps": self.steps,
            "steps_done": self.steps_done,
            "preemptions": self.preemptions,
            "attached": self.attached,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "error": self.error,
            "deadline_s": self.spec.deadline_s,
            "attempts": len(self.incidents) + 1,
            "incidents": [
                i.to_json() if hasattr(i, "to_json") else dict(i)
                for i in self.incidents
            ],
            "spec": self.spec.to_json(),
        }

    @property
    def preemptible(self) -> bool:
        """Ensemble batches are throughput jobs with per-member scalar
        state the solo snapshot shape does not capture — they run to
        completion; every solo backend preempts at step boundaries."""
        return self.spec.backend != "ensemble"


def stats_rows(series, count: int | None = None) -> list[dict]:
    """Plain-JSON rows of a (Member)TimeSeries — the cached/serving form.

    Floats survive JSON exactly (``repr`` shortest round-trip), so rows
    from a cache hit compare bitwise-equal to rows from a cold run.
    """
    n = len(series) if count is None else count
    return [stats_row(series[i]) for i in range(n)]


def stats_row(stats) -> dict:
    """One StepStats as a plain-JSON dict (exact float round-trip)."""
    return {f.name: getattr(stats, f.name) for f in dc_fields(stats)}
