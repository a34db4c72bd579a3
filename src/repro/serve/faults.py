"""Serve-tier fault injection (chaos testing vocabulary).

Mirrors the dist runtime's ``FAULT_MODES`` (:mod:`repro.dist.worker`)
at job granularity: a :class:`ServeFaultSpec` names the cold job it
targets (by cold-submission index — the Nth cache-miss job the server
schedules), the step at which to fire, the mode, and how many times the
fault re-fires across retries (``repeat``; the default 1 means the
first retry runs clean, which is what makes retried results provably
bitwise identical to fault-free runs).

Modes:

- ``worker_crash`` — the worker thread raises
  :class:`InjectedWorkerCrash` at the step boundary (classified
  retryable: the bounded-backoff retry path);
- ``worker_hang`` — the worker thread blocks on the spec's ``release``
  event (the hung-worker detector's prey; tests can set the event to
  unblock the stale thread);
- ``worker_slow`` — the worker thread sleeps ``seconds`` at the step
  boundary (deadline-watchdog fodder);
- ``server_kill`` — the whole server process exits with ``os._exit``
  (SIGKILL semantics: no cleanup, no journal flush beyond what already
  hit the OS) — only meaningful for subprocess servers;
- ``journal_torn`` — a deliberately partial journal frame is written,
  then the process dies as for ``server_kill``: the restart must
  truncate the torn tail and recover.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field

#: Supported fault modes.
SERVE_FAULT_MODES = (
    "worker_crash", "worker_hang", "worker_slow", "server_kill",
    "journal_torn",
)

#: Exit status for the process-killing modes (mirrors SIGKILL's 128+9).
KILL_EXIT_STATUS = 137


class InjectedWorkerCrash(RuntimeError):
    """The fault a ``worker_crash`` injection raises (retryable)."""


@dataclass
class ServeFaultSpec:
    """One injected fault, ``job:step:mode[:repeat]`` on the CLI."""

    #: Cold-submission index of the target job (0 = first cache miss).
    job: int
    #: Fires when the job's ``steps_done`` reaches this step.
    step: int
    mode: str
    #: Total firings across retries (1 = first retry runs clean).
    repeat: int = 1
    #: ``worker_slow`` sleep seconds.
    seconds: float = 0.5
    #: Times fired so far (mutated by :func:`apply_fault`).
    fired: int = 0
    #: ``worker_hang`` blocks on this until a test releases it.
    release: threading.Event = field(default_factory=threading.Event)

    def __post_init__(self):
        if self.mode not in SERVE_FAULT_MODES:
            raise ValueError(
                f"unknown serve fault mode {self.mode!r}; "
                f"choose from {SERVE_FAULT_MODES}"
            )
        if self.job < 0 or self.step < 0 or self.repeat < 1:
            raise ValueError("job/step must be >= 0 and repeat >= 1")

    def should_fire(self, steps_done: int) -> bool:
        return steps_done == self.step and self.fired < self.repeat


def parse_serve_fault(text: str) -> ServeFaultSpec:
    """Parse the CLI form ``job:step:mode[:repeat]``."""
    parts = text.split(":")
    if len(parts) not in (3, 4):
        raise ValueError(
            f"serve fault must be job:step:mode[:repeat], got {text!r}"
        )
    repeat = int(parts[3]) if len(parts) == 4 else 1
    return ServeFaultSpec(
        job=int(parts[0]), step=int(parts[1]), mode=parts[2], repeat=repeat
    )


def apply_fault(fault: ServeFaultSpec, job, journal=None) -> None:
    """Fire ``fault`` if due at the job's current step (worker thread).

    Called from the runner's step listener right after ``steps_done``
    advances; raising here fails the segment through its normal
    exception path.
    """
    if not fault.should_fire(job.steps_done):
        return
    fault.fired += 1
    if fault.mode == "worker_crash":
        raise InjectedWorkerCrash(
            f"injected worker_crash in job {job.id} at step {job.steps_done}"
        )
    if fault.mode == "worker_hang":
        # Parked until a test releases it (or forever — the daemon
        # thread dies with the process).  The hung-worker detector must
        # reclaim the slot without this thread's cooperation.
        fault.release.wait()
        raise InjectedWorkerCrash(
            f"injected worker_hang in job {job.id} released at step "
            f"{job.steps_done}"
        )
    if fault.mode == "worker_slow":
        time.sleep(fault.seconds)
        return
    if fault.mode == "journal_torn" and journal is not None:
        # Racing the loop thread's own appends is the point: the bytes a
        # crash mid-append leaves behind are exactly this partial frame.
        journal.append_torn(job.fail_record("injected torn record"))
    # server_kill and journal_torn both end here: die without cleanup.
    os._exit(KILL_EXIT_STATUS)
