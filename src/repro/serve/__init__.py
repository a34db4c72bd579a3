"""SIMCoV-as-a-service: the asyncio job server (DESIGN.md §4e, §4g).

A thin serving layer over every existing driver: submit a run config +
overrides + seed + backend, get a job id; results are cached (correct by
bitwise determinism), long jobs yield to higher-priority work through
checkpoint-backed preemption, and per-step stats stream live over SSE.

Fault tolerance (§4g): a CRC-framed job journal makes a SIGKILLed server
recoverable bitwise-exactly; failed attempts retry under a bounded
backoff policy; a watchdog enforces deadlines and reclaims hung workers;
admission control answers overload with typed 429/503; SIGTERM drains
gracefully.
"""

from repro.serve.cache import ResultCache
from repro.serve.client import ServeClient, ServeError, parse_sse
from repro.serve.faults import (
    SERVE_FAULT_MODES,
    InjectedWorkerCrash,
    ServeFaultSpec,
    parse_serve_fault,
)
from repro.serve.jobs import (
    ACTIVE_STATES,
    CANCELLED,
    DONE,
    FAILED,
    QUEUED,
    RETRYING,
    RUNNING,
    Job,
    JobSpec,
    SpecError,
    result_cache_key,
)
from repro.serve.journal import JobJournal, JournalCorruptError
from repro.serve.runner import SegmentResult, build_sim, run_segment
from repro.serve.scheduler import FairShareQueue, Scheduler, job_cost
from repro.serve.server import AdmissionError, BackgroundServer, ServeApp

__all__ = [
    "ACTIVE_STATES",
    "CANCELLED",
    "DONE",
    "FAILED",
    "QUEUED",
    "RETRYING",
    "RUNNING",
    "SERVE_FAULT_MODES",
    "AdmissionError",
    "BackgroundServer",
    "FairShareQueue",
    "InjectedWorkerCrash",
    "Job",
    "JobJournal",
    "JobSpec",
    "JournalCorruptError",
    "ResultCache",
    "Scheduler",
    "SegmentResult",
    "ServeApp",
    "ServeClient",
    "ServeError",
    "ServeFaultSpec",
    "SpecError",
    "build_sim",
    "job_cost",
    "parse_serve_fault",
    "parse_sse",
    "result_cache_key",
    "run_segment",
]
