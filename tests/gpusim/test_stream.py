"""Tests for the stream/event overlap model."""

import pytest

from repro.perf.stream import Engine, StreamSchedule


class TestSingleStream:
    def test_serializes(self):
        sched = StreamSchedule()
        s = sched.stream()
        s.compute(1.0)
        s.compute(2.0)
        assert sched.makespan() == pytest.approx(3.0)

    def test_empty(self):
        assert StreamSchedule().makespan() == 0.0

    def test_timeline_order(self):
        sched = StreamSchedule()
        s = sched.stream()
        s.compute(1.0, label="a")
        s.copy(0.5, label="b")
        tl = sched.timeline()
        assert tl[0][0] == "a" and tl[0][2] == 0.0 and tl[0][3] == 1.0
        assert tl[1][0] == "b" and tl[1][2] == 1.0

    def test_negative_duration_rejected(self):
        sched = StreamSchedule()
        with pytest.raises(ValueError):
            sched.stream().compute(-1.0)


class TestOverlap:
    def test_different_engines_overlap(self):
        sched = StreamSchedule()
        s0, s1 = sched.stream(), sched.stream()
        s0.compute(3.0)
        s1.copy(2.0)
        assert sched.makespan() == pytest.approx(3.0)

    def test_same_engine_contends(self):
        sched = StreamSchedule()
        s0, s1 = sched.stream(), sched.stream()
        s0.compute(3.0)
        s1.compute(2.0)  # same compute engine: serialized
        assert sched.makespan() == pytest.approx(5.0)

    def test_three_engines_fully_parallel(self):
        sched = StreamSchedule()
        a, b, c = sched.stream(), sched.stream(), sched.stream()
        a.compute(2.0)
        b.copy(2.0)
        c.host(2.0)
        assert sched.makespan() == pytest.approx(2.0)

    def test_busy_seconds(self):
        sched = StreamSchedule()
        s = sched.stream()
        s.compute(1.0)
        s.copy(4.0)
        sched.makespan()
        assert sched.busy_seconds(Engine.COMPUTE) == 1.0
        assert sched.busy_seconds(Engine.COPY) == 4.0


class TestEvents:
    def test_wait_delays_start(self):
        sched = StreamSchedule()
        s0, s1 = sched.stream(), sched.stream()
        ev = s1.copy(2.0, label="halo")
        s0.wait(ev)
        s0.compute(1.0, label="boundary")
        tl = dict((label, (start, end)) for label, _, start, end in sched.timeline())
        assert tl["boundary"][0] == pytest.approx(2.0)
        assert sched.makespan() == pytest.approx(3.0)

    def test_wait_on_completed_event_free(self):
        sched = StreamSchedule()
        s0, s1 = sched.stream(), sched.stream()
        ev = s1.copy(0.5)
        s0.compute(2.0)
        s0.wait(ev)
        s0.compute(1.0)
        assert sched.makespan() == pytest.approx(3.0)  # no extra delay

    def test_forward_wait_is_deadlock(self):
        sched = StreamSchedule()
        s0, s1 = sched.stream(), sched.stream()
        # Record the event *after* the waiting op is enqueued.
        fake = sched._new_event()
        s0.wait(fake)
        s0.compute(1.0)
        s1.copy(1.0)  # some unrelated op; fake is never recorded
        with pytest.raises(ValueError, match="deadlock"):
            sched.makespan()


class TestLatencyHidingPattern:
    def test_interior_compute_hides_halo_copy(self):
        """The classic overlap: interior kernel runs while the halo flies;
        only the (small) boundary kernel waits."""
        interior, halo, boundary = 10.0, 4.0, 1.0
        # Serial schedule (SIMCoV-GPU today).
        serial = StreamSchedule()
        s = serial.stream()
        s.copy(halo)
        s.compute(interior)
        s.compute(boundary)
        # Overlapped schedule.
        overlap = StreamSchedule()
        c, x = overlap.stream(), overlap.stream()
        ev = x.copy(halo, label="halo")
        c.compute(interior, label="interior")
        c.wait(ev)
        c.compute(boundary, label="boundary")
        assert serial.makespan() == pytest.approx(15.0)
        assert overlap.makespan() == pytest.approx(11.0)
