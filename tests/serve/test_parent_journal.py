"""A journal written before a checkpoint carried its series still replays.

``fixtures/parent_solo`` and ``fixtures/parent_batch`` were recorded by a
server of that format: one ``small_2d`` job of 30 steps (solo, and a
batch of three) drained at step 5, so each journal ends in a ``preempt``
record that carries the job's five rows beside a checkpoint without
series columns.  Its checkpoint path is relative to the directory the
server ran in.  A server started on a copy replays the job and finishes
it to the uninterrupted run's result.
"""

import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.io.checkpoint import SERIES_ARRAYS
from repro.serve import BackgroundServer, ServeApp, ServeClient
from repro.serve.jobs import job_records, rebuild_jobs
from repro.serve.journal import JobJournal
from repro.serve.runner import COMPLETED, run_segment
from tests.serve.test_server import ensemble_result, reference_rows

FIXTURES = Path(__file__).parent / "fixtures"
SPEC = {"config": "small_2d", "steps": 30, "seed": 3}
BATCH = dict(SPEC, backend="ensemble", ensemble=3)


@pytest.mark.parametrize(
    "name, spec", [("parent_solo", SPEC), ("parent_batch", BATCH)], ids=["solo", "batch"]
)
def test_parent_journal_replays_to_the_uninterrupted_result(
    name, spec, tmp_path, monkeypatch
):
    shutil.copytree(FIXTURES / name, tmp_path / name)
    monkeypatch.chdir(tmp_path)
    (preempt,) = [r for r in JobJournal(name).replay() if r["type"] == "preempt"]
    assert preempt["steps_done"] == len(preempt["rows"]) == 5
    with np.load(preempt["checkpoint"]) as data:
        assert not set(SERIES_ARRAYS) & set(data.files)

    app = ServeApp(port=0, max_workers=1, journal_dir=name)
    with BackgroundServer(app):
        (job_id,) = app.jobs
        client = ServeClient(port=app.port)
        assert client.wait(job_id, timeout=60.0)["state"] == "done"
        result = client.result(job_id)["result"]
        assert client.metrics()["replayed_jobs"] == 1
    if name == "parent_solo":
        expected = {"kind": "solo", "seed": 3, "rows": reference_rows(SPEC)}
    else:
        expected = ensemble_result(BATCH)
    assert json.dumps(result, sort_keys=True) == json.dumps(expected, sort_keys=True)


def test_compacted_parent_job_restarts_from_its_submit(tmp_path, monkeypatch):
    """Compaction writes no rows, so a replayed parent-format job compacts
    to its submit alone, not to its rowless checkpoint: replayed again, it
    runs from step 0 to the uninterrupted result."""
    shutil.copytree(FIXTURES / "parent_solo", tmp_path / "parent_solo")
    monkeypatch.chdir(tmp_path)
    replayed = rebuild_jobs(JobJournal("parent_solo").replay())
    (job,) = replayed.values()
    assert job.snapshot is not None and job.resume_checkpoint is None
    compacted = [r for job in replayed.values() for r in job_records(job)]
    assert [r["type"] for r in compacted] == ["submit"]
    (job,) = rebuild_jobs(compacted).values()
    assert (job.steps_done, job.snapshot) == (0, None)
    assert run_segment(job, lambda frame: None).outcome == COMPLETED
    assert job.result["rows"] == reference_rows(SPEC)
