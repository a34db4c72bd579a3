"""The asyncio HTTP/JSON job server.

Stdlib-only (``asyncio`` streams — no web framework): a tiny HTTP/1.1
front door over the scheduling core.  One connection serves one request
(``Connection: close``), which keeps the parser ~30 lines and is ample
for thousands of short-lived clients on localhost.

Routes::

    POST /jobs               submit a JobSpec           -> job summary
    GET  /jobs               list jobs                  -> summaries
    GET  /jobs/{id}          job status                 -> summary
    GET  /jobs/{id}/result   finished stats rows        -> result payload
    GET  /jobs/{id}/events   live SSE stream (id-tagged frames; replays
                             from event 0, or from ``Last-Event-ID``)
    POST /jobs/{id}/cancel   cancel queued/running job
    GET  /metrics            Prometheus text exposition (scrapers)
    GET  /metrics.json       serving counters + latency percentiles
    GET  /healthz            liveness probe with scheduler/worker status
    GET  /readyz             readiness probe: 503 while draining or
                             after a failed journal replay

Execution: simulations are CPU-bound, so segments run on per-segment
daemon threads while the loop thread owns every piece of mutable state
(jobs table, scheduler, event logs, journal) — worker threads reach it
only through ``loop.call_soon_threadsafe``.  Preemption is cooperative
and checkpoint-backed: the scheduler calls the victim's
``StepEngine.request_preempt``, the engine yields at the next step
boundary, the runner snapshots, and the job re-enters the queue to be
resumed bitwise-exactly later.

Fault tolerance (DESIGN.md §4g): a job transition is a journal record
(:mod:`repro.serve.jobs` builds and applies them).  Every one goes
through :meth:`ServeApp._transition`, which appends it to the CRC-framed
write-ahead log (:mod:`repro.serve.journal`) when ``journal_dir`` is set
and applies it; a restarted server applies the replayed records through
the same function — re-enqueueing incomplete jobs, resuming preempted
ones from their disk checkpoints — with results bitwise identical to an
uninterrupted run.
Worker failures are classified and retried under a bounded-backoff
:class:`~repro.resilience.RestartPolicy`; a watchdog enforces
per-job deadlines and reclaims hung workers; admission control bounds
the queue and per-client in-flight work with typed 429/503 answers;
``SIGTERM`` triggers a graceful drain (stop admitting,
checkpoint-preempt running jobs, flush the journal, exit 0).
"""

from __future__ import annotations

import asyncio
import json
import os
import threading
import time
import uuid
import warnings
from collections import deque

from repro.obs.prometheus import CONTENT_TYPE as _PROM_CONTENT_TYPE
from repro.obs.registry import get_registry
from repro.resilience import RETRYABLE, RestartPolicy, judge_failure
from repro.serve import runner as runner_mod
from repro.serve.cache import ResultCache
from repro.serve.jobs import (
    ACTIVE_STATES,
    CANCELLED,
    DONE,
    FAILED,
    QUEUED,
    RETRYING,
    RUNNING,
    TERMINAL_STATES,
    Job,
    JobSpec,
    SpecError,
    apply_record,
    job_records,
    rebuild_jobs,
    result_cache_key,
)
from repro.serve.journal import JobJournal, JournalCorruptError
from repro.serve.scheduler import Scheduler, job_cost
from repro.telemetry.sinks import SseSink, sse_frame
from repro.telemetry.tracer import NULL_TRACER, Tracer

#: Sentinel closing a job's event log (SSE streams drain then stop).
_END = None

#: Queue waits kept for ``/metrics.json``'s p50/p99: the newest this many
#: cold jobs (the registry's histogram counts every one).
WAIT_SAMPLES = 4096


class AdmissionError(Exception):
    """A submission was refused by admission control (HTTP 429/503)."""

    def __init__(self, status: int, reason: str, message: str,
                 retry_after: float = 1.0):
        super().__init__(message)
        self.status = status
        self.reason = reason
        self.retry_after = retry_after

    def payload(self) -> dict:
        return {
            "error": str(self),
            "reason": self.reason,
            "retry_after": self.retry_after,
        }


class ServeApp:
    """The serving application: scheduler + cache + HTTP surface.

    Parameters
    ----------
    host, port:
        Bind address; ``port=0`` picks an ephemeral port (tests, the
        load harness) — read the resolved one from ``app.port`` after
        :meth:`start`.
    max_workers:
        Concurrent job segments (thread pool size).
    cache_dir:
        Optional on-disk result-cache mirror (per-key subdirectories,
        atomic writes); memory-only when None.
    checkpoint_dir:
        Optional root for preemption-snapshot mirrors (per-job
        subdirectories); in-memory shadow snapshots only when None.
    trace_path:
        Optional telemetry log for the server's own spans (a
        ``cat="serving"`` span per completed job, a ``cat="resilience"``
        span per failed attempt): JSONL by default, or with
        ``trace_format="chrome"`` a Perfetto-loadable trace.  The
        server's counters and gauges are the registry's, served by
        ``GET /metrics``.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8642,
        max_workers: int = 2,
        cache_dir: str | None = None,
        checkpoint_dir: str | None = None,
        trace_path: str | None = None,
        trace_format: str = "jsonl",
        sse_categories=SseSink.DEFAULT_CATEGORIES,
        journal_dir: str | None = None,
        retry_policy: RestartPolicy | None = None,
        max_queue_depth: int | None = None,
        max_inflight_per_client: int | None = None,
        hang_timeout_s: float | None = 30.0,
        watchdog_interval_s: float = 0.05,
        fault=None,
    ):
        self.host = host
        self.port = port
        self.scheduler = Scheduler(max_workers)
        # Journaling implies durable results and durable checkpoints:
        # replay needs the disk cache to resolve "complete" records and
        # the checkpoint mirrors to resume preempted jobs, so both
        # default to subdirectories of the journal.
        self.journal_dir = journal_dir
        if journal_dir is not None and cache_dir is None:
            cache_dir = os.path.join(journal_dir, "cache")
        if journal_dir is not None and checkpoint_dir is None:
            checkpoint_dir = os.path.join(journal_dir, "checkpoints")
        self.cache = ResultCache(cache_dir)
        self.checkpoint_dir = checkpoint_dir
        self.sse_categories = sse_categories
        self.retry_policy = (
            retry_policy if retry_policy is not None
            else RestartPolicy(max_restarts=3, backoff=0.05)
        )
        self.max_queue_depth = max_queue_depth
        self.max_inflight_per_client = max_inflight_per_client
        self.hang_timeout_s = hang_timeout_s
        self.watchdog_interval_s = watchdog_interval_s
        #: Optional ServeFaultSpec (chaos testing): targets the Nth cold
        #: job submitted after startup.
        self.fault = fault
        self.journal: JobJournal | None = (
            JobJournal(journal_dir) if journal_dir is not None else None
        )
        #: Set once drain() runs: stop admitting, finish running work.
        self._draining = False
        self._drain_done = False
        #: Journal replay failed at startup (readiness goes 503).
        self._replay_error: str | None = None
        #: Active (queued/running/preempted/retrying) cold jobs per
        #: client — the per-client admission cap's denominator.
        self._client_active: dict[str, int] = {}
        #: Cold submissions so far (fault targeting index).
        self._miss_seq = 0
        self._segment_threads: set[threading.Thread] = set()
        self._watchdog_task: asyncio.Task | None = None
        self.jobs: dict[str, Job] = {}
        #: cache_key -> active job id (in-flight request coalescing).
        self._inflight: dict[str, str] = {}
        #: spec signature -> (params, steps, cache_key).  Resolution costs
        #: ~1ms (params construction + typed encoding + hash); under a
        #: repeated-request load that is the entire submit latency.
        self._resolve_memo: dict[str, tuple] = {}
        self._events: dict[str, list] = {}
        self._conds: dict[str, asyncio.Condition] = {}
        self.metrics = {
            "submitted": 0,
            "cache_hits": 0,
            "coalesced": 0,
            "completed": 0,
            "failed": 0,
            "cancelled": 0,
            "preemptions": 0,
            "resumes": 0,
            "retries": 0,
            "rejected": 0,
            "deadline_expired": 0,
            "hung_workers": 0,
            "replayed_jobs": 0,
        }
        #: Submit-to-first-dispatch seconds (queue wait) of the newest
        #: ``WAIT_SAMPLES`` cold jobs.
        self.wait_seconds: deque[float] = deque(maxlen=WAIT_SAMPLES)
        #: Always-on registry instruments.  The `metrics` dict above
        #: stays as the JSON payload's source of truth; `_count` keeps
        #: the Prometheus counters in lockstep with it.
        self.registry = get_registry()
        reg = self.registry
        self._obs_counters = {
            name: reg.counter(f"simcov_serve_{name}_total", help_text)
            for name, help_text in (
                ("submitted", "Jobs accepted by POST /jobs"),
                ("cache_hits", "Submits answered from the result cache"),
                ("cache_misses", "Submits that scheduled a fresh run"),
                ("coalesced", "Submits joined onto an in-flight twin"),
                ("completed", "Jobs finished successfully"),
                ("failed", "Jobs that errored"),
                ("cancelled", "Jobs cancelled by clients"),
                ("preemptions", "Running jobs preempted for higher priority"),
                ("resumes", "Preempted jobs resumed from checkpoint"),
                ("sse_frames", "Event frames appended to job streams"),
                ("sse_streams", "GET /jobs/{id}/events streams opened"),
                ("retries", "Failed job attempts re-run under the policy"),
                ("rejected", "Submissions refused by admission control"),
                ("deadline_expired", "Jobs failed by the deadline watchdog"),
                ("hung_workers", "Worker threads reclaimed by the "
                                 "hang detector"),
                ("replayed_jobs", "Jobs re-enqueued from the journal "
                                  "at startup"),
            )
        }
        #: Per-reason rejection counters (labels on one metric name).
        self._rejected_reason_counters: dict[str, object] = {}
        self._obs_wait = reg.histogram(
            "simcov_serve_submit_to_first_event_seconds",
            "Submit-to-first-dispatch latency (cache hits observe ~0)",
        )
        self._obs_gauges = {
            name: reg.gauge(f"simcov_serve_{name}", help_text)
            for name, help_text in (
                ("queue_depth", "Jobs waiting for a worker"),
                ("busy_workers", "Worker threads running a segment"),
                ("max_workers", "Worker-pool size"),
                ("cache_entries", "Result-cache entries resident"),
            )
        }
        if trace_path is not None:
            if trace_format == "chrome":
                from repro.telemetry.sinks import ChromeTraceSink

                sinks = [ChromeTraceSink(trace_path)]
            elif trace_format == "jsonl":
                from repro.telemetry.sinks import JsonlSink

                sinks = [JsonlSink(trace_path)]
            else:
                raise ValueError(
                    f"trace_format must be 'jsonl' or 'chrome', "
                    f"got {trace_format!r}"
                )
            self.tracer = Tracer(backend="serve", sinks=sinks)
        else:
            self.tracer = NULL_TRACER
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.base_events.Server | None = None
        self._wake: asyncio.Event | None = None
        self._stopped: asyncio.Event | None = None
        self._dispatch_task: asyncio.Task | None = None
        self._started_wall: float | None = None

    def _count(self, name: str, amount: int = 1) -> None:
        """Bump a serving counter on both surfaces (JSON dict + registry)."""
        if name in self.metrics:
            self.metrics[name] += amount
        self._obs_counters[name].inc(amount)

    # -- transitions -----------------------------------------------------------

    def _transition(self, job: Job, record: dict) -> None:
        """Journal (for a journaled job) and apply one transition.  A
        terminal one also frees the job's admission slots and ends its
        event stream (loop thread)."""
        if job.journaled:
            self.journal.append(record)
        apply_record(job, record)
        if job.state in TERMINAL_STATES:
            if job.cache != "hit":  # a hit never took _enqueue's slots
                self._inflight.pop(job.cache_key, None)
                left = self._client_active.pop(job.spec.client, 0) - 1
                if left > 0:
                    self._client_active[job.spec.client] = left
            self._finish_events(job)

    def _maybe_compact(self) -> None:
        if self.journal is not None and self.journal.should_compact:
            jobs = sorted(self.jobs.values(), key=lambda j: j.seq)
            self.journal.compact([r for j in jobs if j.journaled for r in job_records(j)])

    def _restore_from_journal(self) -> None:
        """Rebuild the jobs table from the journal (startup, pre-bind).

        Every record is applied, in journal order, by the function a live
        transition uses.  Then a terminal job gets its terminal frame and
        every other job re-enters the queue with its id and checkpoint
        resume point (which holds its rows so far).  A completed job whose
        result is not in the disk cache runs again (at-least-once,
        harmless by bitwise determinism)."""
        try:
            records = self.journal.replay()
        except JournalCorruptError as err:
            # Serve (liveness) but flunk readiness: a load balancer
            # stops routing while an operator inspects the journal.
            self._replay_error = str(err)
            warnings.warn(
                f"journal replay failed — starting with an empty jobs "
                f"table, readiness probe will report it: {err}",
                RuntimeWarning,
                stacklevel=2,
            )
            return
        for job in rebuild_jobs(records).values():
            self.jobs[job.id] = job
            self._events[job.id] = []
            if job.state == DONE:
                job.result = self.cache.get(job.cache_key)
                if job.result is None:  # the result died with the process
                    apply_record(job, job.submit_record())
            if job.state in TERMINAL_STATES:
                self._finish_events(job)
                continue
            job.state = QUEUED
            self._enqueue(job)
            self._count("replayed_jobs")
            self._publish(job, sse_frame("state", job.summary()))

    # -- lifecycle ------------------------------------------------------------

    async def start(self) -> None:
        """Bind and start serving (returns once listening).

        With a journal configured, replay happens *before* the socket
        binds: by the time a client can reach the server, every
        incomplete journaled job is back in the queue.
        """
        self._loop = asyncio.get_running_loop()
        self._started_wall = time.time()
        self._wake = asyncio.Event()
        self._stopped = asyncio.Event()
        if self.journal is not None:
            self._restore_from_journal()
            self.journal.open_for_append()
        # A deep backlog matters under load-test-scale bursts: with the
        # default (100) the kernel drops SYNs and clients stall a full
        # TCP retransmit timeout (~1s) — exactly the latency gate.
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port, backlog=4096
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._dispatch_task = asyncio.ensure_future(self._dispatch_loop())
        self._watchdog_task = asyncio.ensure_future(self._watchdog_loop())
        if self._wake is not None and len(self.scheduler.queue):
            self._wake.set()

    async def serve_forever(self) -> None:
        """:meth:`start` + block until :meth:`abort`/:meth:`stop`."""
        if self._server is None:
            await self.start()
        try:
            await self._stopped.wait()
        finally:
            # Runs on cancellation too (SIGINT lands while parked on the
            # wait): worker threads must join and the trace sink must
            # flush even when the loop is being torn down around us.
            await self._shutdown()

    def stop(self) -> None:
        """Initiate shutdown from inside the loop thread."""
        if self._stopped is not None:
            self._stopped.set()

    def abort(self) -> None:
        """Thread/signal-safe shutdown trigger (the
        :func:`~repro.experiments.signals.abort_on_signals` hook): asks
        every running segment to preempt and stops the loop, so Ctrl-C
        never leaks worker threads, dist shm segments or torn caches."""
        for job in list(self.scheduler.running.values()):
            job.request_preempt()
        loop = self._loop
        if loop is not None and not loop.is_closed():
            try:
                loop.call_soon_threadsafe(self.stop)
            except RuntimeError:  # loop already closing
                pass

    async def _shutdown(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._dispatch_task is not None:
            self._dispatch_task.cancel()
        if self._watchdog_task is not None:
            self._watchdog_task.cancel()
        for job in list(self.scheduler.running.values()):
            job.request_preempt()
        threads = [t for t in self._segment_threads if t.is_alive()]
        if threads:
            # Wait for in-flight segments: their ``finally`` blocks close
            # sims (dist workers, /dev/shm) — the no-leak guarantee.  A
            # genuinely hung worker gets a bounded join; it is a daemon
            # thread and dies with the process.
            def join_all():
                for t in threads:
                    t.join(timeout=10)

            await asyncio.get_running_loop().run_in_executor(None, join_all)
        if self.journal is not None:
            self.journal.close()
        self.tracer.close()

    # -- submission / scheduling ----------------------------------------------

    def _reject(self, status: int, reason: str, message: str,
                retry_after: float = 1.0):
        self._count("rejected")
        counter = self._rejected_reason_counters.get(reason)
        if counter is None:
            counter = self.registry.counter(
                "simcov_serve_rejected_reason_total",
                "Submissions refused by admission control, by reason",
                reason=reason,
            )
            self._rejected_reason_counters[reason] = counter
        counter.inc()
        raise AdmissionError(status, reason, message, retry_after)

    def _admit_cold(self, spec: JobSpec) -> None:
        """Admission control for work that would take a queue slot or a worker.

        Cache hits and joins are always admitted (they cost nothing);
        only a cold job can overload the server, so the bounds apply
        here — and the answer is a typed 429/503 with ``Retry-After``,
        never a hang or a dropped socket.
        """
        if (
            self.max_queue_depth is not None
            and len(self.scheduler.queue) >= self.max_queue_depth
        ):
            self._reject(
                503, "queue_full",
                f"queue depth {len(self.scheduler.queue)} at the "
                f"--max-queue-depth bound {self.max_queue_depth}; "
                f"retry shortly",
            )
        cap = self.max_inflight_per_client
        if cap is not None:
            active = self._client_active.get(spec.client, 0)
            if active >= cap:
                self._reject(
                    429, "client_limit",
                    f"client {spec.client!r} has {active} jobs in flight "
                    f"at the --max-inflight bound {cap}; retry shortly",
                )

    def submit(self, spec: JobSpec) -> tuple[Job, str]:
        """Create (or reuse) a job for ``spec``; returns ``(job, how)``
        with ``how`` one of ``"hit"`` / ``"join"`` / ``"miss"``.
        Raises :class:`AdmissionError` when refused (draining/overload).

        Loop-thread only (HTTP handlers run here).
        """
        if self._draining:
            self._reject(
                503, "draining",
                "server is draining: not admitting new jobs",
                retry_after=5.0,
            )
        self._count("submitted")
        signature = spec.cache_signature()
        memo = self._resolve_memo.get(signature)
        if memo is None:
            params, steps = spec.resolve_params()
            key = result_cache_key(params, spec.seeds(), steps)
            while len(self._resolve_memo) >= 4096:
                self._resolve_memo.pop(next(iter(self._resolve_memo)))
            self._resolve_memo[signature] = (params, steps, key)
        else:
            params, steps, key = memo
        inflight_id = self._inflight.get(key)
        if inflight_id is not None:
            peer = self.jobs[inflight_id]
            if peer.state in ACTIVE_STATES:
                peer.attached += 1
                self._count("coalesced")
                return peer, "join"
            self._inflight.pop(key, None)
        cached = self.cache.get(key)
        if cached is not None:
            job = self._make_job(spec, params, steps, key)
            job.cache = "hit"
            job.result = cached
            self._count("cache_hits")
            self._obs_wait.observe(0.0)
            self._transition(job, job.complete_record())
            return job, "hit"
        self._admit_cold(spec)
        job = self._make_job(spec, params, steps, key)
        job.journaled = self.journal is not None
        self._transition(job, job.submit_record())
        self._enqueue(job)
        self._count("cache_misses")
        self._publish(job, sse_frame("state", job.summary()))
        self._maybe_preempt_for(job)
        if self._wake is not None:
            self._wake.set()
        return job, "miss"

    def _make_job(self, spec, params, steps, key) -> Job:
        job = Job(
            id=uuid.uuid4().hex[:12],
            spec=spec,
            params=params,
            steps=steps,
            cache_key=key,
        )
        self.jobs[job.id] = job
        self._events[job.id] = []
        return job

    def _enqueue(self, job: Job) -> None:
        """Queue a cold job.  Until it ends it holds its cache key's
        in-flight slot and one of its client's admission slots."""
        if self.fault is not None and self.fault.job == self._miss_seq:
            job.fault = self.fault  # chaos testing: the Nth cold job
        self._miss_seq += 1
        self._inflight[job.cache_key] = job.id
        client = job.spec.client
        self._client_active[client] = self._client_active.get(client, 0) + 1
        self.scheduler.submit(job)

    def _maybe_preempt_for(self, candidate: Job) -> None:
        victim = self.scheduler.pick_victim(candidate)
        if victim is None:
            return
        victim.request_preempt()
        self._count("preemptions")

    async def _dispatch_loop(self) -> None:
        while True:
            await self._wake.wait()
            self._wake.clear()
            while not self._draining:
                job = self.scheduler.next_dispatch()
                if job is None:
                    break
                self._start_segment(job)

    def _start_segment(self, job: Job) -> None:
        resumed = (
            job.snapshot is not None or job.resume_checkpoint is not None
        )
        if job.started_at is None:
            job.started_at = time.time()
            self.wait_seconds.append(job.started_at - job.submitted_at)
            self._obs_wait.observe(self.wait_seconds[-1])
        if resumed:
            self._count("resumes")
        self._transition(job, job.start_record())
        job.last_heartbeat = time.monotonic()
        loop = self._loop
        generation = job.generation

        def publish(frame, _job=job):
            loop.call_soon_threadsafe(self._publish, _job, frame)

        def segment(_job=job, _gen=generation):
            # One daemon thread per segment (not a pool): a hung worker
            # must not poison a pool slot — the hang detector abandons
            # the thread and the scheduler slot frees immediately.
            try:
                result = runner_mod.run_segment(
                    _job,
                    publish,
                    checkpoint_root=self.checkpoint_dir,
                    sse_categories=self.sse_categories,
                    journal=self.journal,
                )
            except Exception as err:  # pragma: no cover - runner catches
                result = runner_mod.SegmentResult(
                    runner_mod.FAILED, 0,
                    error=f"{type(err).__name__}: {err}",
                    error_type=type(err).__name__,
                )
            if not loop.is_closed():
                try:
                    loop.call_soon_threadsafe(
                        self._segment_done, _job, _gen, result
                    )
                except RuntimeError:  # loop shut down under us
                    pass

        thread = threading.Thread(
            target=segment, name=f"simcov-serve-{job.id}", daemon=True
        )
        self._segment_threads.add(thread)
        self._segment_threads = {
            t for t in self._segment_threads if t.is_alive() or t is thread
        }
        thread.start()

    def _segment_done(self, job: Job, generation: int, result) -> None:
        if generation != job.generation:
            # An abandoned (hung, later revived) segment reporting back:
            # the server already rolled the job back and moved on.
            return
        self.scheduler.charge(
            job.spec.client, job_cost(job, steps=result.steps_run)
        )
        if job.state == CANCELLED:
            # cancel() ended the job; its segment only held the slot.
            self.scheduler.release(job)
        elif result.outcome == runner_mod.COMPLETED:
            self._count("completed")
            # Durable result before the journal's "complete" record: a
            # crash between the two replays the job (at-least-once),
            # never declares a result it cannot serve.
            self.cache.put(job.cache_key, job.result)
            self.scheduler.release(job)
            self._transition(job, job.complete_record())
            if self.tracer:
                self.tracer.emit_span(
                    "job", job.started_at,
                    job.finished_at - job.started_at, cat="serving",
                    job=job.id, steps=job.steps,
                    preemptions=job.preemptions,
                )
        elif result.outcome == runner_mod.PREEMPTED:
            self._transition(job, job.preempt_record(
                job.steps_done, result.checkpoint or job.resume_checkpoint,
            ))
            if job.deadline_expired:
                # The watchdog preempted it to fail it cleanly: the
                # checkpoint above is preserved for a manual resume.
                self.scheduler.release(job)
                self._fail_job(
                    job,
                    f"DeadlineExceededError: deadline_s="
                    f"{job.spec.deadline_s} exceeded after "
                    f"{job.steps_done}/{job.steps} steps (checkpoint preserved)",
                    reason="deadline",
                )
            else:
                self.scheduler.release(job, requeue=True)
        else:
            self.scheduler.release(job)
            self._handle_failure(job, result)
        self._wake.set()
        self._maybe_compact()
        self._maybe_finish_drain()

    def _fail_job(self, job: Job, error: str, *, reason: str = "error") -> None:
        """Terminal failure (loop thread).  The job must already be off
        queue and running set."""
        self._count("failed")
        if reason == "deadline":
            self._count("deadline_expired")
        self._transition(job, job.fail_record(error))

    def _handle_failure(self, job: Job, result) -> None:
        """A segment failed: classify, record the incident, and either
        park the job for a backed-off retry or fail it for good."""
        incident, error = judge_failure(
            self.retry_policy, job.incidents, result, self.tracer,
            start=time.time(), job=job.id,
        )
        record = job.retry_record(incident)
        self._transition(job, record)
        if error is not None:
            self._fail_job(job, error)
            return
        self._count("retries")
        self._publish(job, sse_frame("retrying", {
            "job": job.id,
            "attempt": incident.index + 1,
            "backoff_seconds": incident.backoff_seconds,
            "incident": record["incident"],
        }))
        if incident.backoff_seconds > 0:
            self._loop.call_later(
                incident.backoff_seconds, self._requeue_retry, job
            )
        else:
            self._requeue_retry(job)

    def _requeue_retry(self, job: Job) -> None:
        """Backoff elapsed: put the job back in the queue (unless it was
        cancelled or deadline-failed while parked)."""
        if job.state != RETRYING:
            return
        job.state = QUEUED
        self.scheduler.submit(job)
        self._publish(job, sse_frame("state", job.summary()))
        if self._wake is not None:
            self._wake.set()

    # -- watchdog --------------------------------------------------------------

    async def _watchdog_loop(self) -> None:
        """Deadline + hung-worker enforcement, one scan per interval."""
        while True:
            await asyncio.sleep(self.watchdog_interval_s)
            try:
                self._scan_deadlines()
                self._scan_hangs()
            except Exception:  # pragma: no cover - watchdog must survive
                import traceback

                traceback.print_exc()

    def _scan_deadlines(self) -> None:
        now = time.time()
        for job in list(self.jobs.values()):
            deadline = job.spec.deadline_s
            if deadline is None or job.state not in ACTIVE_STATES:
                continue
            if now - job.submitted_at <= deadline:
                continue
            if job.state == RUNNING:
                if not job.deadline_expired:
                    # Preempt-then-fail: the segment stops and
                    # checkpoints at the next step boundary and
                    # _segment_done converts the requeue into a clean
                    # deadline failure.
                    job.deadline_expired = True
                    job.request_preempt()
                continue
            # Queued / parked-in-backoff: fail immediately.
            if job.id in self.scheduler.queue:
                self.scheduler.queue.remove(job.id)
            self._fail_job(
                job,
                f"DeadlineExceededError: deadline_s={deadline} exceeded "
                f"while {job.state} after {job.steps_done}/{job.steps} "
                f"steps",
                reason="deadline",
            )

    def _scan_hangs(self) -> None:
        if self.hang_timeout_s is None:
            return
        now = time.monotonic()
        for job in list(self.scheduler.running.values()):
            beat = job.last_heartbeat
            if beat is None or now - beat <= self.hang_timeout_s:
                continue
            # Abandon the segment: bump the generation (the stale thread
            # becomes a no-op), roll back to the segment start, free the
            # slot, and run the failure through the normal retry path.
            self._count("hung_workers")
            job.generation += 1
            job.preempt_hook = None
            stalled_at = job.steps_done
            job.steps_done = job.segment_start_steps
            self.scheduler.release(job)
            self._handle_failure(job, runner_mod.SegmentResult(
                runner_mod.FAILED,
                stalled_at - job.segment_start_steps,
                error=(
                    f"WorkerHangError: no step heartbeat for "
                    f"{self.hang_timeout_s:.1f}s at step {stalled_at}"
                ),
                error_type="WorkerHangError",
                classification=RETRYABLE,
                restored_step=job.segment_start_steps,
            ))
            self._wake.set()

    # -- graceful drain --------------------------------------------------------

    def drain(self) -> None:
        """Thread/signal-safe graceful-drain trigger (the SIGTERM hook):
        stop admitting, checkpoint-preempt running jobs, flush the
        journal, then stop the server cleanly."""
        self._draining = True
        loop = self._loop
        if loop is not None and not loop.is_closed():
            try:
                loop.call_soon_threadsafe(self._drain_step)
            except RuntimeError:  # pragma: no cover - loop closing
                pass

    def _drain_step(self) -> None:
        for job in list(self.scheduler.running.values()):
            job.request_preempt()
        self._maybe_finish_drain()

    def _maybe_finish_drain(self) -> None:
        if not self._draining or self._drain_done:
            return
        if self.scheduler.running:
            return
        self._drain_done = True
        if self.journal is not None:
            self.journal.sync()
        self.stop()

    def cancel(self, job: Job) -> bool:
        """Cancel a queued, retrying or running job (loop thread).  A
        running one is asked to stop; its worker slot frees when the
        segment reports back."""
        if job.state not in ACTIVE_STATES:
            return False
        self._count("cancelled")
        self._transition(job, job.cancel_record())
        if job.id in self.scheduler.running:
            job.request_preempt()
        elif job.id in self.scheduler.queue:
            # (A job parked in retry backoff is in neither: the
            # call_later requeue sees CANCELLED and does nothing.)
            self.scheduler.queue.remove(job.id)
        return True

    # -- event streams ---------------------------------------------------------

    def _publish(self, job: Job, frame) -> None:
        log = self._events.get(job.id)
        if log is None or (log and log[-1] is _END):
            return
        # Stamp the frame with its log index so a reconnecting client
        # can resume exactly where its last stream broke (Last-Event-ID).
        log.append(f"id: {len(log)}\n{frame}")
        self._obs_counters["sse_frames"].inc()
        cond = self._conds.get(job.id)
        if cond is not None:
            asyncio.ensure_future(self._notify(cond))

    def _finish_events(self, job: Job) -> None:
        """Publish a terminal job's last frame and close its event log."""
        frame = "error" if job.state == FAILED else "done"
        self._publish(job, sse_frame(frame, job.summary()))
        log = self._events.get(job.id)
        if log is not None and (not log or log[-1] is not _END):
            log.append(_END)
            cond = self._conds.get(job.id)
            if cond is not None:
                asyncio.ensure_future(self._notify(cond))

    @staticmethod
    async def _notify(cond: asyncio.Condition) -> None:
        async with cond:
            cond.notify_all()

    # -- metrics ---------------------------------------------------------------

    def _refresh_gauges(self) -> None:
        """Sample the lazily-scraped gauges (queue/pool/cache state is
        cheap to read but pointless to push on every mutation)."""
        g = self._obs_gauges
        g["queue_depth"].set(len(self.scheduler.queue))
        g["busy_workers"].set(len(self.scheduler.running))
        g["max_workers"].set(self.scheduler.max_workers)
        g["cache_entries"].set(len(self.cache))

    def metrics_text(self) -> str:
        """Prometheus exposition of the process registry."""
        self._refresh_gauges()
        return self.registry.render_prometheus()

    def health_payload(self) -> dict:
        """Liveness: always 200 while the loop answers requests — a
        draining server is alive (don't restart it mid-drain)."""
        states: dict[str, int] = {}
        for job in self.jobs.values():
            states[job.state] = states.get(job.state, 0) + 1
        return {
            "ok": True,
            "status": "draining" if self._draining else "serving",
            "draining": self._draining,
            "scheduler": {
                "queue_depth": len(self.scheduler.queue),
                "busy_workers": len(self.scheduler.running),
                "max_workers": self.scheduler.max_workers,
            },
            "jobs": states,
            "uptime_seconds": (
                time.time() - self._started_wall
                if self._started_wall is not None else 0.0
            ),
        }

    def readiness_payload(self) -> tuple[int, dict]:
        """Readiness: 503 while draining or after a failed journal
        replay — a load balancer stops routing, liveness stays green."""
        if self._replay_error is not None:
            return 503, {
                "ready": False,
                "reason": "journal_replay_failed",
                "detail": self._replay_error,
            }
        if self._draining:
            return 503, {"ready": False, "reason": "draining"}
        return 200, {"ready": True}

    def metrics_payload(self) -> dict:
        self._refresh_gauges()
        waits = sorted(self.wait_seconds)

        def pct(p):
            if not waits:
                return 0.0
            return waits[min(len(waits) - 1, int(p * len(waits)))]

        submitted = self.metrics["submitted"]
        free = self.metrics["cache_hits"] + self.metrics["coalesced"]
        return {
            **self.metrics,
            "queue_depth": len(self.scheduler.queue),
            "busy_workers": len(self.scheduler.running),
            "max_workers": self.scheduler.max_workers,
            "cache_entries": len(self.cache),
            "cache_hit_rate": free / submitted if submitted else 0.0,
            "wait_p50_seconds": pct(0.50),
            "wait_p99_seconds": pct(0.99),
            "fair_share_spent": dict(self.scheduler.queue.spent),
        }

    # -- HTTP ------------------------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        try:
            request = await _read_request(reader)
            if request is None:
                return
            method, path, headers, body = request
            await self._route(method, path, headers, body, writer)
        except RequestError as err:
            await _respond(writer, err.status, {"error": str(err)})
        except (ConnectionResetError, BrokenPipeError, asyncio.TimeoutError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _route(self, method, path, headers, body, writer) -> None:
        parts = [p for p in path.split("?")[0].split("/") if p]
        if method == "GET" and parts == ["healthz"]:
            return await _respond(writer, 200, self.health_payload())
        if method == "GET" and parts == ["readyz"]:
            status, payload = self.readiness_payload()
            return await _respond(writer, status, payload)
        if method == "GET" and parts == ["metrics"]:
            return await _respond_text(
                writer, 200, self.metrics_text(), _PROM_CONTENT_TYPE
            )
        if method == "GET" and parts == ["metrics.json"]:
            return await _respond(writer, 200, self.metrics_payload())
        if method == "POST" and parts == ["jobs"]:
            try:
                spec = JobSpec.from_json(json.loads(body or b"{}"))
                job, how = self.submit(spec)
            except (SpecError, json.JSONDecodeError) as err:
                return await _respond(writer, 400, {"error": str(err)})
            except AdmissionError as err:
                return await _respond(
                    writer, err.status, err.payload(),
                    headers={"Retry-After": f"{err.retry_after:g}"},
                )
            status = 200 if how in ("hit", "join") else 201
            return await _respond(
                writer, status, {"cache": how, "job": job.summary()}
            )
        if method == "GET" and parts == ["jobs"]:
            return await _respond(
                writer, 200,
                {"jobs": [j.summary() for j in self.jobs.values()]},
            )
        if len(parts) >= 2 and parts[0] == "jobs":
            job = self.jobs.get(parts[1])
            if job is None:
                return await _respond(
                    writer, 404, {"error": f"no such job {parts[1]!r}"}
                )
            tail = parts[2:]
            if method == "GET" and not tail:
                return await _respond(writer, 200, job.summary())
            if method == "GET" and tail == ["result"]:
                if job.state != DONE:
                    return await _respond(
                        writer, 409,
                        {"error": f"job is {job.state}", "job": job.summary()},
                    )
                return await _respond(
                    writer, 200, {"job": job.summary(), "result": job.result}
                )
            if method == "GET" and tail == ["events"]:
                start = 0
                last_id = headers.get("last-event-id")
                if last_id is not None:
                    try:
                        start = int(last_id) + 1
                    except ValueError:
                        start = 0
                return await self._stream_events(job, writer, start=start)
            if method == "POST" and tail == ["cancel"]:
                ok = self.cancel(job)
                return await _respond(
                    writer, 200 if ok else 409, job.summary()
                )
        await _respond(
            writer, 404, {"error": f"no route {method} {path}"}
        )

    async def _stream_events(self, job: Job, writer, start: int = 0) -> None:
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: text/event-stream\r\n"
            b"Cache-Control: no-cache\r\n"
            b"Connection: close\r\n\r\n"
        )
        await writer.drain()
        self._obs_counters["sse_streams"].inc()
        log = self._events[job.id]
        # Made for the first subscriber: most jobs (every cache hit) have
        # none, and _publish notifies only a job that has one.
        cond = self._conds.setdefault(job.id, asyncio.Condition())
        # Last-Event-ID resume: skip frames the client already has (the
        # _END sentinel never gets an id, so start can at most land on it).
        sent = max(0, min(start, len(log)))
        if sent and log[sent - 1:sent] == [_END]:
            sent -= 1
        while not writer.is_closing():
            while sent < len(log):
                frame = log[sent]
                sent += 1
                if frame is _END:
                    return
                writer.write(frame.encode())
            await writer.drain()
            async with cond:
                await cond.wait_for(
                    lambda: len(log) > sent or writer.is_closing()
                )


# -- HTTP plumbing -------------------------------------------------------------

#: Largest request body read; a job spec is a few hundred bytes.
MAX_BODY_BYTES = 1 << 20


class RequestError(Exception):
    """A request refused before routing, answered with ``status``."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


async def _read_request(reader):
    """Parse one HTTP/1.1 request; returns
    ``(method, path, headers, body)`` (header names lower-cased) or None.
    Raises :class:`RequestError` for a ``Content-Length`` that is not a
    byte count or that the body falls short of (400), or that is over
    :data:`MAX_BODY_BYTES` (413)."""
    line = await reader.readline()
    if not line:
        return None
    try:
        method, path, _version = line.decode("latin1").split()
    except ValueError:
        return None
    headers: dict[str, str] = {}
    while True:
        header = await reader.readline()
        if header in (b"\r\n", b"\n", b""):
            break
        name, _, value = header.decode("latin1").partition(":")
        headers[name.strip().lower()] = value.strip()
    declared = headers.get("content-length", "0")
    try:
        content_length = int(declared)
    except ValueError:
        content_length = -1
    if content_length < 0:
        raise RequestError(400, f"malformed Content-Length {declared!r}")
    if content_length > MAX_BODY_BYTES:
        raise RequestError(
            413,
            f"body of {content_length} bytes is over the "
            f"{MAX_BODY_BYTES}-byte limit",
        )
    try:
        body = await reader.readexactly(content_length) if content_length else b""
    except asyncio.IncompleteReadError as err:
        raise RequestError(
            400,
            f"body ended after {len(err.partial)} of the {content_length} "
            "bytes its Content-Length declares",
        ) from None
    return method.upper(), path, headers, body


_STATUS_TEXT = {
    200: "OK", 201: "Created", 400: "Bad Request", 404: "Not Found",
    409: "Conflict", 413: "Payload Too Large", 429: "Too Many Requests",
    500: "Internal Server Error", 503: "Service Unavailable",
}


async def _respond(writer, status: int, payload: dict,
                   headers: dict | None = None) -> None:
    body = json.dumps(payload).encode()
    extra = "".join(
        f"{name}: {value}\r\n" for name, value in (headers or {}).items()
    )
    writer.write(
        (
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'OK')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"{extra}"
            f"Connection: close\r\n\r\n"
        ).encode()
    )
    writer.write(body)
    await writer.drain()


async def _respond_text(writer, status: int, text: str,
                        content_type: str = "text/plain") -> None:
    body = text.encode()
    writer.write(
        (
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'OK')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n"
        ).encode()
    )
    writer.write(body)
    await writer.drain()


class BackgroundServer:
    """Run a :class:`ServeApp` on a daemon thread with its own loop.

    The synchronous embedding used by tests, the load harness's
    reference runs and anything else that wants a live server without
    owning an event loop::

        with BackgroundServer(ServeApp(port=0)) as app:
            client = ServeClient(port=app.port)
            ...
    """

    def __init__(self, app: ServeApp, startup_timeout: float = 10.0):
        self.app = app
        self.startup_timeout = startup_timeout
        self._ready = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="simcov-serve-loop", daemon=True
        )

    def _run(self) -> None:
        async def main():
            await self.app.start()
            self._ready.set()
            await self.app.serve_forever()

        try:
            asyncio.run(main())
        finally:
            self._ready.set()  # unblock __enter__ on startup failure

    def __enter__(self) -> ServeApp:
        self._thread.start()
        if not self._ready.wait(self.startup_timeout):  # pragma: no cover
            raise RuntimeError("serve app did not start in time")
        if self.app._loop is None:  # pragma: no cover - startup failed
            raise RuntimeError("serve app failed to start")
        return self.app

    def __exit__(self, *exc) -> None:
        self.app.abort()
        self._thread.join(timeout=30)
