"""A snapshot carries the run's time series.

``snapshot_state`` copies the series columns up to the current step and
``restore_state`` replaces the sim's series with them, so a restored
run's series is the whole run's — in memory and on disk, solo and
batched, for one member of a batch, and after a hang reclaim whose
abandoned segment keeps appending.  A file written without the series
columns still loads, and its series starts at the restored step.
"""

import threading
import time

import numpy as np
import pytest

from repro.core.model import SequentialSimCov
from repro.core.params import SimCovParams
from repro.engine.ensemble import EnsembleSimCov
from repro.io.checkpoint import (
    SERIES_ARRAYS,
    load_checkpoint,
    restore_state,
    save_checkpoint,
    snapshot_state,
)
from repro.serve.faults import ServeFaultSpec
from repro.serve.jobs import Job, JobSpec, stats_rows
from repro.serve.runner import COMPLETED, run_segment

PARAMS = SimCovParams.fast_test(dim=(24, 24), num_infections=2, num_steps=40)
SEEDS = [3, 4, 5, 6]
CUT, TOTAL = 10, 25


def typed(rows):
    """Rows with each value's Python type, so a numpy scalar that
    compares equal to a float still fails."""
    return [[(type(v), v) for v in row.values()] for row in rows]


def typed_rows(series):
    return typed(stats_rows(series))


@pytest.fixture(scope="module")
def solo_runs():
    full = SequentialSimCov(PARAMS, seed=3)
    full.run(TOTAL)
    head = SequentialSimCov(PARAMS, seed=3)
    head.run(CUT)
    return head, full


@pytest.fixture(scope="module")
def batch_runs():
    full = EnsembleSimCov(PARAMS, seeds=SEEDS)
    full.run(TOTAL)
    head = EnsembleSimCov(PARAMS, seeds=SEEDS)
    head.run(CUT)
    return head, full


def test_restore_onto_a_stepped_sim_replaces_its_series(solo_runs):
    """Stepped to 30 and restored to step 10, the sim's series is the
    first 10 rows, and 5 more steps give the uninterrupted 15."""
    head, full = solo_runs
    sim = SequentialSimCov(PARAMS, seed=3)
    sim.run(30)
    restore_state(sim, snapshot_state(head))
    assert len(sim.series) == CUT
    sim.run(5)
    steps = sim.series.steps()
    assert np.all(np.diff(steps) > 0)
    assert steps.tolist() == list(range(CUT + 5))
    assert typed_rows(sim.series) == typed_rows(full.series)[: CUT + 5]


@pytest.mark.parametrize("on_disk", [False, True], ids=["memory", "disk"])
def test_solo_round_trip(solo_runs, on_disk, tmp_path):
    head, full = solo_runs
    if on_disk:
        path = str(tmp_path / "solo.npz")
        save_checkpoint(path, head)
        sim = load_checkpoint(path)
    else:
        sim = SequentialSimCov(PARAMS, seed=3)
        restore_state(sim, snapshot_state(head))
    assert typed_rows(sim.series) == typed_rows(head.series)
    sim.run(TOTAL - CUT)
    assert typed_rows(sim.series) == typed_rows(full.series)


@pytest.mark.parametrize("on_disk", [False, True], ids=["memory", "disk"])
def test_batch_round_trip(batch_runs, on_disk, tmp_path):
    head, full = batch_runs
    if on_disk:
        path = str(tmp_path / "batch.npz")
        save_checkpoint(path, head)
        with np.load(path) as data:
            assert data["series_reduced"].shape == (CUT, len(SEEDS), 8)
            assert data["series_binds"].shape == (CUT, len(SEEDS))
        sim = load_checkpoint(path)
    else:
        sim = EnsembleSimCov(PARAMS, seeds=SEEDS)
        sim.run(3)
        restore_state(sim, snapshot_state(head))
    sim.run(TOTAL - CUT)
    for b in range(len(SEEDS)):
        assert typed_rows(sim.member_series[b]) == typed_rows(full.member_series[b]), b


@pytest.mark.parametrize("on_disk", [False, True], ids=["memory", "disk"])
def test_member_snapshot_is_the_solo_series(batch_runs, on_disk, tmp_path):
    """``snapshot_state(sim.member(b))`` gives member b's series in solo
    shape; restored into a solo sim it continues as b's solo run."""
    head, full = batch_runs
    for b, seed in enumerate(SEEDS):
        if on_disk:
            path = str(tmp_path / f"member{b}.npz")
            save_checkpoint(path, head.member(b))
            solo = load_checkpoint(path)
        else:
            snapshot = snapshot_state(head.member(b))
            assert snapshot["series"]["reduced"].shape == (CUT, 8)
            assert snapshot["series"]["pool"].shape == (CUT,)
            solo = SequentialSimCov(PARAMS, seed=seed)
            restore_state(solo, snapshot)
        solo.run(TOTAL - CUT)
        assert typed_rows(solo.series) == typed_rows(full.member_series[b]), b


def test_snapshot_shares_no_list_with_the_live_sim():
    sim = SequentialSimCov(PARAMS, seed=3)
    sim.run(CUT)
    snapshot = snapshot_state(sim)
    sim.run(5)
    assert len(snapshot["series"]["step"]) == CUT
    restored = SequentialSimCov(PARAMS, seed=3)
    restore_state(restored, snapshot)
    restored.run(1)
    assert len(snapshot["series"]["step"]) == CUT
    assert len(sim.series) == CUT + 5


def test_hang_reclaim_retry_is_bitwise(solo_runs):
    """The segment hangs at step 15 after snapshotting at step 10, having
    appended five more rows to its own series.  Abandoned as the server's
    hang detector does it (a new generation, progress rolled back), its
    retry restores the step-10 snapshot and finishes bitwise."""
    _, full = solo_runs
    spec = JobSpec(dim=(24, 24), steps=TOTAL, seed=3)
    params, steps = spec.resolve_params()
    job = Job(
        id="hang", spec=spec, params=params, steps=steps, cache_key="",
        fault=ServeFaultSpec(job=0, step=15, mode="worker_hang"),
    )
    hung = threading.Thread(
        target=run_segment, args=(job, lambda frame: None),
        kwargs={"checkpoint_every": CUT}, daemon=True,
    )
    hung.start()
    deadline = time.monotonic() + 30
    while not job.fault.fired:
        assert time.monotonic() < deadline
        time.sleep(0.005)
    job.generation += 1
    job.steps_done = CUT
    try:
        assert len(job.snapshot["series"]["step"]) == CUT
        assert run_segment(job, lambda frame: None).outcome == COMPLETED
    finally:
        job.fault.release.set()
        hung.join(timeout=30)
    assert len(job.snapshot["series"]["step"]) == CUT
    assert typed(job.result["rows"]) == typed_rows(full.series)


def test_file_without_series_columns_still_loads(solo_runs, tmp_path):
    """A version-2 file as written before the series columns: it loads,
    its series starts empty at the restored step, and the run continues
    bitwise."""
    head, full = solo_runs
    path = str(tmp_path / "v2.npz")
    save_checkpoint(path, head)
    with np.load(path) as data:
        old = {
            k: data[k] for k in data.files
            if k not in SERIES_ARRAYS and k[len("crc_"):] not in SERIES_ARRAYS
        }
    assert int(old["format_version"]) == 2
    np.savez_compressed(path, **old)
    sim = load_checkpoint(path)
    assert sim.step_num == CUT and len(sim.series) == 0
    sim.run(TOTAL - CUT)
    assert typed_rows(sim.series) == typed_rows(full.series)[CUT:]
