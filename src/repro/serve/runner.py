"""Job execution: one segment of one job, and a job run to the end.

A *segment* is the unit the scheduler dispatches: a fresh job runs its
first segment from step 0; a preempted or failed job's next segment
restores the last shadow snapshot and continues — bitwise identically,
because the snapshot is taken at a step boundary, randomness is a pure
function of ``(seed, step, voxel)`` and a snapshot does not depend on
the decomposition (so it restores onto any rank count).

The runner is synchronous and asyncio-free by design: the server calls
:func:`run_segment` through its executor and bridges the ``publish``
callback into each job's SSE event log with
``loop.call_soon_threadsafe``.  Per-step stats stream through the
engine's step listeners; telemetry spans stream through an
:class:`~repro.telemetry.sinks.SseSink` on the job's tracer.
:func:`run_job` is the server's retry loop without the server:
``simcov-repro run`` is one job run through it in process.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, replace
from time import perf_counter

import numpy as np

from repro.io.checkpoint import (
    KEEP_CHECKPOINTS,
    auto_checkpoint_path,
    load_snapshot,
    restore_state,
    rotate_checkpoints,
    save_checkpoint,
    snapshot_state,
)
from repro.resilience import (
    RETRYABLE,
    PermanentError,
    RestartPolicy,
    RestartsExhaustedError,
    classify_exception,
    judge_failure,
)
from repro.serve.faults import apply_fault
from repro.serve.jobs import Job, stats_rows
from repro.telemetry.sinks import SseSink, sse_frame
from repro.telemetry.tracer import Tracer

#: Segment outcomes the server's dispatch loop switches on.
COMPLETED, PREEMPTED, FAILED = "completed", "preempted", "failed"


@dataclass
class SegmentResult:
    """What one executed segment reports back to the scheduler."""

    outcome: str
    steps_run: int
    error: str | None = None
    #: Exception class name of a FAILED segment.
    error_type: str | None = None
    #: Retryable/permanent classification of a FAILED segment.
    classification: str = RETRYABLE
    #: Step the job rolled back to on failure (retry resumes here).
    restored_step: int = 0
    #: On-disk checkpoint written by a PREEMPTED segment (journaling).
    checkpoint: str | None = None


def build_sim(job: Job, tracer=None, **driver_kwargs):
    """Construct the requested backend's driver for this job
    (``driver_kwargs``: extra constructor arguments, e.g. a dist fault)."""
    from repro.engine.driver import build_driver

    spec = job.spec
    seeds = (
        {"seeds": np.array(spec.seeds(), dtype=np.int64)}
        if spec.backend == "ensemble" else {"seed": spec.seed}
    )
    return build_driver(
        spec.backend, job.params, nranks=spec.nranks, tracer=tracer,
        **seeds, **driver_kwargs,
    )


def job_checkpoint_dir(root: str, job: Job) -> str:
    """Per-job shadow-checkpoint subdirectory.

    Collision safety under concurrency: two jobs snapshotting at the
    same moment write (and rotate) in disjoint directories, so
    :func:`rotate_checkpoints`'s delete sweep can never reap another
    job's files.
    """
    return os.path.join(root, job.id)


def run_segment(
    job: Job,
    publish,
    *,
    checkpoint_root: str | None = None,
    checkpoint_every: int | None = None,
    sse_categories=SseSink.DEFAULT_CATEGORIES,
    journal=None,
    tracer=None,
    driver_kwargs=None,
) -> SegmentResult:
    """Execute one segment of ``job`` (thread entry point).

    ``publish(frame)`` receives ready-to-send SSE frame strings: one
    ``step`` frame per completed step, ``telemetry`` frames for the
    tracer's step spans, and a ``preempted`` frame when the segment is
    cut short.  The job's bookkeeping fields (``steps_done``,
    ``preemptions``, ``snapshot``, ``result``) are updated in place; the
    caller owns the state machine.

    A job's rows are its sim's series: the snapshot a segment resumes
    from carries every earlier segment's rows, so the result is built
    from the completing segment's sim alone.

    ``checkpoint_every=K`` runs the segment in chunks that end on steps
    divisible by K.  ``sim.run`` returns quiescent — no step launched
    ahead — so after each chunk the state is shadow-snapshotted into
    ``job.snapshot`` (mirrored under ``checkpoint_root`` when given; a
    ``checkpoint`` span with ``cat="resilience"`` times it) and becomes
    the failure rollback point.  Without it the segment is one
    chunk, snapshotted only when preempted.  Every backend is handled
    alike — a batch is snapshotted whole.  ``tracer`` replaces the
    segment's own SSE-streaming tracer and is left open, so one trace can
    span a job's attempts.

    Crash-safety contract (DESIGN.md §4g): the generation captured at
    entry makes an *abandoned* segment (the hung-worker detector bumped
    ``job.generation`` and handed the job to a retry) harmless — its
    step listener and cleanup become no-ops, and a row it still appends
    lands in its own sim's series, not in the snapshot (a copy).  A
    failed attempt rolls ``steps_done`` back to the last snapshot it took
    (else the segment's start), so the retry replays from it with nothing
    double-counted — bitwise identical to a fault-free run.
    """
    sse_sink = None
    if tracer is None:
        sse_sink = SseSink(publish, categories=sse_categories)
        tracer = Tracer(backend=job.spec.backend, sinks=[sse_sink])
    sim = None
    generation = job.generation
    start_step = rollback_step = job.steps_done
    fault = job.fault
    try:
        sim = build_sim(job, tracer=tracer, **(driver_kwargs or {}))
        if job.snapshot is None and job.resume_checkpoint is not None:
            # Journal-replayed job: the in-memory snapshot died with the
            # previous server process; the CRC-verified disk mirror is
            # the resume point.
            job.snapshot = load_snapshot(job.resume_checkpoint)
        if job.snapshot is not None:
            restore_state(sim, job.snapshot)
        job.last_heartbeat = time.monotonic()

        def on_step(stats):
            if job.generation != generation:
                # The server abandoned this segment (hang reclaim):
                # stop quietly at the next boundary, touch nothing.
                sim.request_preempt()
                return
            job.steps_done += 1
            job.last_heartbeat = time.monotonic()
            if fault is not None:
                apply_fault(fault, job, journal=journal)
            publish(sse_frame("step", _step_payload(job, stats)))

        sim.add_step_listener(on_step)
        job.preempt_hook = sim.request_preempt
        if job.preempt_requested:
            # The scheduler asked before the hook existed (this segment
            # was still constructing its sim): honor it now.
            job.preempt_requested = False
            sim.request_preempt()
        every = checkpoint_every
        while job.steps_done < job.steps and job.generation == generation:
            chunk = job.steps - job.steps_done
            if every is not None:
                chunk = min(chunk, every - job.steps_done % every)
            sim.run(chunk)
            if sim.preempted or job.generation != generation:
                break
            if every is not None:
                start = perf_counter()
                job.snapshot = snapshot_state(sim)
                if checkpoint_root is not None:
                    _mirror_snapshot(checkpoint_root, job, sim)
                tracer.emit_span(
                    "checkpoint", start, perf_counter() - start,
                    cat="resilience", step=job.steps_done,
                )
                rollback_step = job.steps_done
        if job.generation != generation:
            return SegmentResult(PREEMPTED, 0)
        if sim.preempted:
            job.preemptions += 1
            checkpoint = None
            job.snapshot = snapshot_state(sim)
            if checkpoint_root is not None:
                checkpoint = _mirror_snapshot(checkpoint_root, job, sim)
            publish(
                sse_frame(
                    "preempted",
                    {
                        "job": job.id,
                        "at_step": job.steps_done,
                        "preemptions": job.preemptions,
                    },
                )
            )
            return SegmentResult(
                PREEMPTED, job.steps_done - start_step,
                checkpoint=checkpoint,
            )
        job.result = _result_payload(job, sim)
        return SegmentResult(COMPLETED, job.steps_done - start_step)
    except Exception as err:  # job failure must never kill the server
        steps_run = job.steps_done - rollback_step
        if job.generation == generation:
            # Roll back to the last snapshot the retry replays from.
            job.steps_done = rollback_step
        return SegmentResult(
            FAILED, steps_run,
            error=f"{type(err).__name__}: {err}",
            error_type=type(err).__name__,
            classification=classify_exception(err),
            restored_step=rollback_step,
        )
    except BaseException:
        # Interrupted (a signal in a CLI run): release parked dist
        # workers at once instead of shutting them down politely.
        if hasattr(sim, "abort"):
            sim.abort()
        raise
    finally:
        if job.generation == generation:
            job.preempt_hook = None
        if sim is not None and hasattr(sim, "close"):
            sim.close()
        if sse_sink is not None:
            tracer.close()
            if sse_sink.dropped:
                # Category-filtered (not lost) events — surfaced so a
                # stream that looks sparse can be told apart from one
                # that is.
                from repro.obs.registry import get_registry

                get_registry().counter(
                    "simcov_serve_sse_filtered_events_total",
                    "Telemetry events the SSE category filter withheld "
                    "from job streams",
                ).inc(sse_sink.dropped)


def run_job(
    job: Job,
    policy: RestartPolicy | None = None,
    *,
    fault=None,
    checkpoint_every: int | None = None,
    checkpoint_root: str | None = None,
    tracer=None,
    driver_kwargs=None,
) -> Job:
    """Run ``job`` to its end in this thread, retrying failed segments.

    The server's retry loop without the server — no HTTP, no journal:
    every failed segment goes through the same
    :func:`~repro.resilience.judge_failure` under ``policy`` (default
    :class:`RestartPolicy`), and the retry restores the last snapshot.
    Under ``on_failure="shrink"`` each retry rebuilds onto one rank fewer
    (never below ``policy.min_ranks``) — exact, because a snapshot does
    not depend on the decomposition; the ``recovery`` span carries
    ``nranks_before``/``nranks_after``.  A dist
    :class:`~repro.dist.worker.FaultSpec` ``fault`` is built into attempt
    ``i`` (0-based) while ``i < fault.repeat`` and its rank exists.
    ``tracer`` spans every attempt and stays open.

    Returns the job (``result``, ``incidents``, ``spec.nranks`` and the
    last ``snapshot``); raises :class:`RestartsExhaustedError` (carrying the
    incidents) when the budget runs out, :class:`PermanentError` on a
    failure not worth retrying.
    """
    policy = policy or RestartPolicy()
    if checkpoint_every is not None and checkpoint_every < 1:
        raise ValueError(f"checkpoint_every must be >= 1, got {checkpoint_every}")
    while True:
        nranks = job.spec.nranks
        kwargs = dict(driver_kwargs or {})
        if fault is not None and len(job.incidents) < fault.repeat \
                and fault.rank < nranks:
            kwargs["fault"] = fault
        result = run_segment(
            job, lambda frame: None, checkpoint_root=checkpoint_root,
            checkpoint_every=checkpoint_every, tracer=tracer,
            driver_kwargs=kwargs,
        )
        if result.outcome == COMPLETED:
            return job
        if result.outcome == PREEMPTED:
            continue
        after = nranks
        if policy.on_failure == "shrink":
            after = max(policy.min_ranks, nranks - 1)
        incident, error = judge_failure(
            policy, job.incidents, result, tracer, start=perf_counter(),
            nranks_before=nranks, nranks_after=after,
        )
        job.incidents.append(incident)
        if error is not None:
            if incident.classification == RETRYABLE:
                raise RestartsExhaustedError(error, job.incidents)
            raise PermanentError(error)
        time.sleep(incident.backoff_seconds)
        job.spec = replace(job.spec, nranks=after)


def _step_payload(job: Job, stats) -> dict:
    return {
        "job": job.id,
        "step": stats.step,
        "healthy": stats.healthy,
        "incubating": stats.incubating,
        "expressing": stats.expressing,
        "apoptotic": stats.apoptotic,
        "dead": stats.dead,
        "tcells_tissue": stats.tcells_tissue,
        "virions_total": stats.virions_total,
        "steps_done": job.steps_done,
        "steps_total": job.steps,
    }


def _result_payload(job: Job, sim) -> dict:
    """The result of a completed job: its sim's whole series (a resumed
    sim's series came back with the snapshot it restored)."""
    if job.spec.backend == "ensemble":
        return {
            "kind": "ensemble",
            "seeds": [int(s) for s in job.spec.seeds()],
            "members": [stats_rows(m) for m in sim.member_series],
        }
    return {"kind": "solo", "seed": job.spec.seed, "rows": stats_rows(sim.series)}


def _mirror_snapshot(root: str, job: Job, sim) -> str:
    """Persist a shadow snapshot under the job's own subdirectory
    (atomic tmp + ``os.replace`` via :func:`save_checkpoint`), rotated
    to the newest :data:`KEEP_CHECKPOINTS`.  Returns the checkpoint path
    — journaled so a restarted server can resume this job from disk."""
    directory = job_checkpoint_dir(root, job)
    path = auto_checkpoint_path(directory, sim.step_num)
    save_checkpoint(path, sim)
    rotate_checkpoints(directory, KEEP_CHECKPOINTS)
    return path
