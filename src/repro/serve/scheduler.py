"""Fair-share priority scheduling (pure logic, no asyncio).

The queue orders jobs by a three-part effective key:

1. **priority class** (higher first) — a client-declared 0..9 urgency;
2. **fair share** (lower spent first) — within a class, the client who
   has consumed the least work wins, so one tenant submitting hundreds
   of jobs cannot starve everyone else in the same class;
3. **arrival sequence** (FIFO tiebreak) — and a preempted job keeps its
   original sequence number, so it resumes ahead of later arrivals of
   equal standing.

Work is charged in *voxel-steps* (``steps × voxels × members``) — the
engine's actual cost unit — normalized to millions so the numbers stay
readable in ``/metrics``.

Preemption policy (:meth:`Scheduler.pick_victim`): when every worker is
busy and a queued job outranks a running one by priority *class*, the
lowest-effective-priority running job yields at its next step boundary
(every backend, a batched ensemble included, snapshots there).
Fair-share differences alone never preempt — they only order the queue
— so the system cannot thrash between equal-class tenants.
"""

from __future__ import annotations

from repro.serve.jobs import Job


def job_cost(job: Job, steps: int | None = None) -> float:
    """Work units (millions of voxel-steps) for ``steps`` of this job."""
    n = job.steps if steps is None else steps
    members = len(job.spec.seeds())
    return n * job.params.num_voxels * members / 1e6


class FairShareQueue:
    """Priority + fair-share ordered job queue.

    ``pop_next`` scans for the minimum effective key — O(n), deliberate:
    fair-share spent changes between pops, so a heap keyed at push time
    would serve stale orderings.  Queue depths in the thousands scan in
    microseconds; revisit only if profiles say otherwise.
    """

    def __init__(self):
        self._jobs: dict[str, Job] = {}
        #: Cumulative charged work per client (fair-share state).
        self.spent: dict[str, float] = {}

    def __len__(self) -> int:
        return len(self._jobs)

    def __contains__(self, job_id: str) -> bool:
        return job_id in self._jobs

    def jobs(self) -> list[Job]:
        return list(self._jobs.values())

    def push(self, job: Job) -> None:
        self._jobs[job.id] = job

    def remove(self, job_id: str) -> Job | None:
        return self._jobs.pop(job_id, None)

    def effective_key(self, job: Job) -> tuple:
        """Sort key: smaller runs earlier."""
        return (
            -job.spec.priority,
            self.spent.get(job.spec.client, 0.0),
            job.seq,
        )

    def pop_next(self) -> Job | None:
        """Remove and return the next job to dispatch (None when empty)."""
        if not self._jobs:
            return None
        best = min(self._jobs.values(), key=self.effective_key)
        del self._jobs[best.id]
        return best

    def charge(self, client: str, cost: float) -> None:
        """Record completed work against a client's fair share."""
        self.spent[client] = self.spent.get(client, 0.0) + cost


class Scheduler:
    """Queue + running-set bookkeeping and the preemption decision."""

    def __init__(self, max_workers: int = 2):
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self.max_workers = int(max_workers)
        self.queue = FairShareQueue()
        self.running: dict[str, Job] = {}

    @property
    def free_slots(self) -> int:
        return self.max_workers - len(self.running)

    def submit(self, job: Job) -> None:
        self.queue.push(job)

    def next_dispatch(self) -> Job | None:
        """Claim the next queued job for a free slot (None if full/empty)."""
        if self.free_slots <= 0:
            return None
        job = self.queue.pop_next()
        if job is not None:
            self.running[job.id] = job
        return job

    def pick_victim(self, candidate: Job) -> Job | None:
        """The running job ``candidate`` should preempt, or None.

        Only fires when no slot is free, and only across priority
        *classes*: the chosen victim is the running job with the weakest
        effective key whose priority class is strictly below the
        candidate's.
        """
        if self.free_slots > 0:
            return None
        victims = [
            j for j in self.running.values()
            if j.spec.priority < candidate.spec.priority
        ]
        if not victims:
            return None
        return max(victims, key=self.queue.effective_key)

    def charge(self, client: str, cost: float) -> None:
        """Record completed work against a client's fair share."""
        self.queue.charge(client, cost)

    def release(self, job: Job, *, requeue: bool = False) -> None:
        """A running job yielded its slot — finished, failed, or
        preempted (``requeue=True`` puts it back with its original
        sequence number, so it resumes ahead of equal newer arrivals)."""
        self.running.pop(job.id, None)
        if requeue:
            self.queue.push(job)
