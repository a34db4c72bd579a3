"""Fair-share queue ordering and the preemption decision."""

from repro.core.params import SimCovParams
from repro.serve.jobs import Job, JobSpec
from repro.serve.scheduler import FairShareQueue, Scheduler, job_cost

PARAMS = SimCovParams.fast_test(dim=(8, 8))


def make_job(job_id, *, priority=0, client="a", backend="sequential",
             ensemble=None, steps=10):
    spec = JobSpec(
        backend=backend, priority=priority, client=client, ensemble=ensemble
    )
    return Job(
        id=job_id, spec=spec, params=PARAMS, steps=steps,
        cache_key=f"key-{job_id}",
    )


class TestFairShareQueue:
    def test_priority_class_first(self):
        q = FairShareQueue()
        low = make_job("low", priority=0)
        high = make_job("high", priority=5)
        q.push(low)
        q.push(high)
        assert q.pop_next() is high
        assert q.pop_next() is low

    def test_fair_share_within_class(self):
        q = FairShareQueue()
        q.charge("greedy", 100.0)
        first = make_job("g1", client="greedy")
        second = make_job("n1", client="newcomer")
        q.push(first)
        q.push(second)
        # Newcomer has spent nothing: it wins despite arriving later.
        assert q.pop_next() is second

    def test_fifo_tiebreak(self):
        q = FairShareQueue()
        a, b = make_job("a"), make_job("b")
        q.push(a)
        q.push(b)
        assert q.pop_next() is a

    def test_preempted_job_keeps_seq(self):
        q = FairShareQueue()
        old = make_job("old")
        new = make_job("new")
        q.push(old)
        assert q.pop_next() is old
        # old was preempted and requeued; a newer arrival of equal
        # standing must not overtake it.
        q.push(new)
        q.push(old)
        assert q.pop_next() is old

    def test_charge_accumulates(self):
        q = FairShareQueue()
        q.charge("c", 1.5)
        q.charge("c", 2.5)
        assert q.spent["c"] == 4.0


class TestScheduler:
    def test_dispatch_respects_slots(self):
        s = Scheduler(max_workers=1)
        s.submit(make_job("a"))
        s.submit(make_job("b"))
        assert s.next_dispatch().id == "a"
        assert s.next_dispatch() is None  # slot full
        assert len(s.queue) == 1

    def test_release_frees_slot(self):
        s = Scheduler(max_workers=1)
        s.submit(make_job("a"))
        job = s.next_dispatch()
        s.release(job)
        assert s.free_slots == 1

    def test_requeue_preserves_job(self):
        s = Scheduler(max_workers=1)
        s.submit(make_job("a"))
        job = s.next_dispatch()
        s.release(job, requeue=True)
        assert job.id in s.queue

    def test_no_victim_when_slot_free(self):
        s = Scheduler(max_workers=2)
        s.submit(make_job("running", priority=0))
        s.next_dispatch()
        assert s.pick_victim(make_job("urgent", priority=9)) is None

    def test_victim_needs_lower_class(self):
        s = Scheduler(max_workers=1)
        s.submit(make_job("running", priority=3))
        running = s.next_dispatch()
        # Same class never preempts (no fair-share thrash)...
        assert s.pick_victim(make_job("peer", priority=3)) is None
        # ...a higher class does.
        assert s.pick_victim(make_job("urgent", priority=4)) is running

    def test_ensemble_job_is_a_victim_like_any(self):
        s = Scheduler(max_workers=1)
        s.submit(make_job("batch", priority=0, backend="ensemble", ensemble=4))
        running = s.next_dispatch()
        assert s.pick_victim(make_job("urgent", priority=9)) is running

    def test_weakest_victim_chosen(self):
        s = Scheduler(max_workers=2)
        s.queue.charge("spender", 50.0)
        s.submit(make_job("v1", priority=1, client="frugal"))
        s.submit(make_job("v2", priority=1, client="spender"))
        s.next_dispatch()
        s.next_dispatch()
        victim = s.pick_victim(make_job("urgent", priority=5))
        assert victim.id == "v2"  # the bigger spender yields first


def test_job_cost_scales_with_work():
    solo = make_job("solo", steps=10)
    assert job_cost(solo) == 10 * PARAMS.num_voxels / 1e6
    batch = make_job("batch", backend="ensemble", ensemble=4, steps=10)
    assert job_cost(batch) == 4 * job_cost(solo)
    assert job_cost(solo, steps=5) == job_cost(solo) / 2
