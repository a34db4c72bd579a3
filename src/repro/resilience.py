"""Shared bounded-restart vocabulary for every fault-tolerant layer.

A failed unit of work — a serving job's segment, or a ``simcov-repro
run`` attempt, which is the same segment run in process — is retried
under one discipline (DESIGN.md §4c, §4g):

- :class:`RestartPolicy` — the bounded-restart budget + exponential
  backoff schedule, and whether a retry keeps the rank count or shrinks;
- :class:`JobIncident` — the per-attempt diagnostic record a job
  accumulates (``/jobs/{id}`` and ``--incident-log`` surface these);
- :func:`judge_failure` — the one retry decision: a failed attempt
  becomes its incident, a retry-or-give-up verdict and its
  ``cat="resilience"`` recovery span;
- :class:`RestartsExhaustedError` — raised by an in-process run when the
  budget is exhausted (serve records the same message as the job error);
- :func:`classify_exception` — the retryable/permanent split: transient
  infrastructure failures are worth re-running, deterministic model or
  spec bugs are not (re-running a ``ValueError`` burns a worker slot to
  produce the same ``ValueError``);
- :func:`format_incident_log` / :func:`write_incident_log` — shared
  human/JSONL renderings of any incident sequence.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

#: Exception classifications.
RETRYABLE = "retryable"
PERMANENT = "permanent"


class PermanentError(RuntimeError):
    """Marker base: raising this (or a subclass) from a unit of work
    tells every retry layer the failure is deterministic — do not
    re-run, fail immediately with the incident log."""


class RestartsExhaustedError(RuntimeError):
    """The bounded-restart budget ran out; carries the incident log."""

    def __init__(self, message: str, incidents=()):
        super().__init__(message)
        self.incidents = tuple(incidents)


@dataclass(frozen=True)
class RestartPolicy:
    """Bounded-restart policy applied on every recoverable failure."""

    #: Recovery attempts before giving up with RestartsExhaustedError.
    max_restarts: int = 3
    #: Base backoff seconds before respawning (0 = immediate); incident
    #: ``i`` sleeps ``backoff * backoff_factor ** (i - 1)``.
    backoff: float = 0.0
    backoff_factor: float = 2.0
    #: ``"restart"`` keeps the rank count; ``"shrink"`` re-decomposes
    #: onto one fewer rank per incident (never below ``min_ranks``).
    #: Only a run's retry loop (``serve.runner.run_job``) shrinks; the
    #: server retries at the submitted rank count.
    on_failure: str = "restart"
    min_ranks: int = 1

    def __post_init__(self):
        if self.on_failure not in ("restart", "shrink"):
            raise ValueError(
                f"on_failure must be 'restart' or 'shrink', "
                f"got {self.on_failure!r}"
            )
        if self.max_restarts < 0:
            raise ValueError("max_restarts must be >= 0")
        if self.min_ranks < 1:
            raise ValueError("min_ranks must be >= 1")

    def backoff_seconds(self, incident_index: int) -> float:
        """Sleep before recovery ``incident_index`` (1-based)."""
        if self.backoff <= 0:
            return 0.0
        return self.backoff * self.backoff_factor ** (incident_index - 1)


@dataclass(frozen=True)
class JobIncident:
    """Diagnostics of one failed attempt of a serving job."""

    #: 1-based incident number for this job.
    index: int
    #: ``job.steps_done`` when the failure surfaced.
    step: int
    #: Exception class name (InjectedWorkerCrash, WorkerHangError, ...).
    error_type: str
    #: First line of the failure diagnostic.
    message: str
    #: ``retryable`` or ``permanent`` (see :func:`classify_exception`).
    classification: str
    #: Step the retry resumes from (last shadow checkpoint, or 0).
    restored_step: int
    #: Steps the retry re-executes to get back to the failure point.
    steps_replayed: int
    #: Backoff slept before the retry (0 for permanent failures).
    backoff_seconds: float

    def describe(self) -> str:
        action = (
            f"retrying from step {self.restored_step} "
            f"(replaying {self.steps_replayed} steps, "
            f"{self.backoff_seconds:.2f}s backoff)"
            if self.classification == RETRYABLE
            else "permanent, not retried"
        )
        return (
            f"incident {self.index}: {self.error_type} at step {self.step} "
            f"-> {action}: {self.message}"
        )

    def to_json(self) -> dict:
        return asdict(self)


#: Deterministic failures: the same inputs produce the same exception,
#: so re-running is pure waste.  Everything else — injected crashes,
#: OS-level errors, dist worker deaths — defaults to retryable.
PERMANENT_ERROR_TYPES: tuple[type, ...] = (
    ValueError,
    TypeError,
    KeyError,
    IndexError,
    AttributeError,
    AssertionError,
    NotImplementedError,
    ZeroDivisionError,
)


def _permanent_types() -> tuple[type, ...]:
    # Lazy: keeps this module import-light (no numpy at import time).
    from repro.io.checkpoint import CheckpointCorruptError

    return (PermanentError, CheckpointCorruptError, *PERMANENT_ERROR_TYPES)


def classify_exception(err: BaseException) -> str:
    """``"retryable"`` or ``"permanent"`` for a failed unit of work.

    Permanent: :class:`PermanentError` subclasses, checkpoint
    corruption, and the deterministic-bug exception types
    (:data:`PERMANENT_ERROR_TYPES`).  Everything else is presumed
    transient and worth a bounded re-run.
    """
    if isinstance(err, _permanent_types()):
        return PERMANENT
    return RETRYABLE


def judge_failure(policy, incidents, result, tracer=None, *, start, **span_attrs):
    """The retry decision for one failed attempt.

    ``result`` describes the attempt (``error``, ``error_type``,
    ``classification``, ``restored_step``, ``steps_run``: a
    ``serve.runner.SegmentResult``); ``incidents`` are the job's earlier
    ones.  Returns ``(incident, error)``: the attempt's
    :class:`JobIncident`, and ``None`` to retry after
    ``incident.backoff_seconds`` or the terminal error message to give up
    with.  A ``recovery`` span starting at ``start`` (``span_attrs`` on
    it) goes to ``tracer`` with ``cat="resilience"``: ``trace report``
    counts restarts and replayed steps from these spans and renders them
    as its incident table.
    """
    index = len(incidents) + 1
    retry = result.classification == RETRYABLE and index <= policy.max_restarts
    backoff = policy.backoff_seconds(index) if retry else 0.0
    message = (result.error or "unknown error").splitlines()[0]
    incident = JobIncident(
        index=index,
        step=result.restored_step + result.steps_run,
        error_type=result.error_type or "Exception",
        message=message,
        classification=result.classification,
        restored_step=result.restored_step,
        steps_replayed=result.steps_run,
        backoff_seconds=backoff,
    )
    if tracer:
        tracer.emit_span(
            "recovery", start, backoff, cat="resilience",
            step=incident.step, error=incident.error_type,
            restored_step=incident.restored_step,
            steps_replayed=incident.steps_replayed, **span_attrs,
        )
    if retry:
        return incident, None
    log = format_incident_log([*incidents, incident])
    if result.classification == PERMANENT:
        return incident, (
            f"{result.error} (permanent failure, not retried)\n"
            f"incident log:\n{log}"
        )
    return incident, (
        f"RestartsExhaustedError: giving up after {policy.max_restarts} "
        f"restart{'s' if policy.max_restarts != 1 else ''}: {message}\n"
        f"incident log:\n{log}"
    )


def format_incident_log(incidents) -> str:
    """Human-readable incident log (one line per incident)."""
    if not incidents:
        return "no incidents"
    return "\n".join(i.describe() for i in incidents)


def write_incident_log(path: str, incidents) -> None:
    """Dump the incident log as JSONL (CI artifact / postmortems)."""
    with open(path, "w") as fh:
        for incident in incidents:
            fh.write(json.dumps(asdict(incident)) + "\n")
