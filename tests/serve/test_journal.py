"""Journal framing, replay, torn tails and compaction.

The crash model is SIGKILL: anything `flush()`ed before the kill is on
disk, plus possibly a partial final frame.  The property tests drive
exactly that — arbitrary record streams cut at arbitrary byte positions
must replay to a prefix of the original stream, never crash, never
invent records.
"""

import asyncio
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import ServeApp
from repro.serve.jobs import (
    DONE,
    FAILED,
    QUEUED,
    RETRYING,
    RUNNING,
    JobSpec,
    apply_record,
    rebuild_jobs,
)
from repro.serve.journal import (
    JobJournal,
    JournalCorruptError,
    frame_record,
    list_segments,
    read_frames,
    segment_path,
)


def drain_frames(data: bytes):
    """Exhaust read_frames, returning (records, stop_offset)."""
    gen = read_frames(data)
    records = []
    while True:
        try:
            _off, record = next(gen)
        except StopIteration as fin:
            return records, fin.value
        records.append(record)


def sample_records(n):
    return [
        {"type": "submit", "job": f"j{i}", "seq": i, "spec": {"seed": i}}
        for i in range(n)
    ]


class TestFraming:
    def test_round_trip(self):
        records = sample_records(5)
        blob = b"".join(frame_record(r) for r in records)
        out, stop = drain_frames(blob)
        assert out == records
        assert stop == len(blob)

    def test_empty(self):
        out, stop = drain_frames(b"")
        assert out == []
        assert stop == 0

    def test_flipped_bit_stops_at_frame_boundary(self):
        records = sample_records(3)
        frames = [frame_record(r) for r in records]
        blob = bytearray(b"".join(frames))
        # Corrupt a payload byte inside the second frame.
        blob[len(frames[0]) + 12] ^= 0xFF
        out, stop = drain_frames(bytes(blob))
        assert out == records[:1]
        assert stop == len(frames[0])


@settings(max_examples=60, deadline=None)
@given(
    n_records=st.integers(min_value=1, max_value=8),
    cut_back=st.integers(min_value=0, max_value=200),
)
def test_torn_tail_always_replays_a_prefix(n_records, cut_back):
    """Truncating the log at ANY byte position yields a prefix of the
    record stream — the torn bytes never crash replay or invent records."""
    records = sample_records(n_records)
    frames = [frame_record(r) for r in records]
    blob = b"".join(frames)
    cut = max(0, len(blob) - cut_back)
    out, stop = drain_frames(blob[:cut])
    assert out == records[:len(out)]
    assert stop <= cut
    # Every record whose frame survived the cut intact is recovered.
    whole = 0
    consumed = 0
    for frame in frames:
        consumed += len(frame)
        if consumed <= cut:
            whole += 1
    assert len(out) == whole


@settings(max_examples=40, deadline=None)
@given(cut_back=st.integers(min_value=1, max_value=40))
def test_replay_truncates_torn_tail_with_warning(tmp_path_factory, cut_back):
    tmp_path = tmp_path_factory.mktemp("journal")
    journal = JobJournal(str(tmp_path))
    records = sample_records(4)
    for r in records:
        journal.append(r)
    journal.close()
    path = segment_path(str(tmp_path), 0)
    size = os.path.getsize(path)
    cut = max(1, size - cut_back)
    with open(path, "r+b") as fh:
        fh.truncate(cut)
    fresh = JobJournal(str(tmp_path))
    if cut == size:
        replayed = fresh.replay()
        assert replayed == records
    else:
        with pytest.warns(RuntimeWarning, match="torn record"):
            replayed = fresh.replay()
        assert replayed == records[:len(replayed)]
        assert fresh.truncated_tail
        # The truncation is persistent: a second replay is clean.
        again = JobJournal(str(tmp_path)).replay()
        assert again == replayed


class TestReplay:
    def test_round_trip_through_files(self, tmp_path):
        journal = JobJournal(str(tmp_path))
        records = sample_records(6)
        for r in records:
            journal.append(r)
        journal.close()
        assert JobJournal(str(tmp_path)).replay() == records

    def test_torn_partial_frame_api(self, tmp_path):
        journal = JobJournal(str(tmp_path))
        journal.append({"type": "submit", "job": "a", "seq": 0, "spec": {}})
        journal.append_torn({"type": "complete", "job": "a"})
        journal.close()
        with pytest.warns(RuntimeWarning, match="torn record"):
            replayed = JobJournal(str(tmp_path)).replay()
        assert replayed == [
            {"type": "submit", "job": "a", "seq": 0, "spec": {}}
        ]

    def test_corruption_in_earlier_segment_raises(self, tmp_path):
        journal = JobJournal(str(tmp_path))
        journal.append({"type": "submit", "job": "a", "seq": 0, "spec": {}})
        journal.close()
        # A second (newer) segment makes segment 0 non-final.
        with open(segment_path(str(tmp_path), 1), "wb") as fh:
            fh.write(frame_record({"type": "complete", "job": "a"}))
        with open(segment_path(str(tmp_path), 0), "r+b") as fh:
            fh.truncate(5)
        with pytest.raises(JournalCorruptError, match="not the final"):
            JobJournal(str(tmp_path)).replay()

    def test_empty_directory(self, tmp_path):
        assert JobJournal(str(tmp_path)).replay() == []


class TestCompaction:
    def test_compact_replaces_segments_atomically(self, tmp_path):
        journal = JobJournal(str(tmp_path), compact_bytes=1)
        for r in sample_records(10):
            journal.append(r)
        assert journal.should_compact
        folded_state = [
            {"type": "submit", "job": "j9", "seq": 9, "spec": {"seed": 9}}
        ]
        journal.compact(folded_state)
        segments = list_segments(str(tmp_path))
        assert [index for index, _ in segments] == [1]
        assert JobJournal(str(tmp_path)).replay() == folded_state
        # The journal stays appendable after compaction.
        journal.append({"type": "complete", "job": "j9"})
        journal.close()
        assert len(JobJournal(str(tmp_path)).replay()) == 2


    def test_running_job_compacts_to_its_checkpoint(self, tmp_path):
        """A job preempted at step 10 and now running at step 25 compacts
        to its step-10 resume point: a replay restores the checkpoint
        (which holds the 10 rows before it), never the live 25."""
        journal_dir = str(tmp_path)

        async def compact():
            app = ServeApp(port=0, journal_dir=journal_dir)
            job, _ = app.submit(JobSpec(dim=(16, 16), steps=40, seed=3))
            # As the server leaves it after a preempt at step 10 and a
            # resumed segment that has reached step 25.
            job.state, job.preemptions = RUNNING, 1
            job.resume_checkpoint = "/ck/step10"
            job.segment_start_steps = 10
            job.steps_done = 25
            app.journal.compact_bytes = 1
            app._maybe_compact()
            app.journal.close()
            return job.id

        async def restore(job_id):
            app = ServeApp(port=0, journal_dir=journal_dir)
            app._restore_from_journal()
            return app.jobs[job_id]

        job = asyncio.run(restore(asyncio.run(compact())))
        assert [index for index, _ in list_segments(journal_dir)] == [1]
        assert (job.state, job.steps_done, job.resume_checkpoint) == (
            QUEUED, 10, "/ck/step10"
        )
        (preempt,) = [
            r for r in JobJournal(journal_dir).replay() if r["type"] == "preempt"
        ]
        assert "rows" not in preempt


class TestFold:
    """Replay applies each record, in journal order, with the function a
    live transition uses."""

    def test_last_wins_per_job(self):
        records = [
            {"type": "submit", "job": "a", "seq": 1, "spec": {"seed": 1}},
            {"type": "start", "job": "a", "attempt": 1, "from_step": 0},
            {
                "type": "preempt", "job": "a", "steps_done": 7,
                "preemptions": 1, "rows": [{"step": 0}],
                "checkpoint": "/ck/a.npz",
            },
            {"type": "submit", "job": "b", "seq": 2, "spec": {"seed": 2}},
            {"type": "complete", "job": "b"},
        ]
        jobs = rebuild_jobs(records)
        assert list(jobs) == ["a", "b"]
        a = jobs["a"]
        assert (a.state, a.steps_done, a.preemptions) == (QUEUED, 7, 1)
        assert a.resume_checkpoint == "/ck/a.npz"
        # An unreadable checkpoint is left to the runner's own load.
        assert a.snapshot is None
        assert jobs["b"].state == DONE
        # Fresh seqs in journal order, whatever the journaled ones were.
        assert a.seq < jobs["b"].seq

    def test_retry_records_accumulate_incidents(self):
        records = [
            {"type": "submit", "job": "a", "seq": 1, "spec": {}},
            {"type": "retry", "job": "a", "incident": {"index": 1}},
            {"type": "retry", "job": "a", "incident": {"index": 2}},
            {"type": "fail", "job": "a", "error": "boom",
             "incidents": [{"index": 1}, {"index": 2}, {"index": 3}]},
        ]
        job = rebuild_jobs(records[:1])["a"]
        for record in records[1:3]:
            apply_record(job, record)
        assert job.state == RETRYING
        assert len(job.incidents) == 2
        apply_record(job, records[3])
        assert (job.state, job.error) == (FAILED, "boom")
        assert len(job.incidents) == 3

    def test_unknown_types_skipped(self):
        jobs = rebuild_jobs([
            {"type": "???", "job": "a"},
            {"type": "submit"},  # no job id
            {"not": "a record"},
        ])
        assert jobs == {}
        job = rebuild_jobs([{"type": "submit", "job": "a", "spec": {}}])["a"]
        before = job.summary()
        apply_record(job, {"type": "???", "job": "a", "steps_done": 9})
        assert job.summary() == before
