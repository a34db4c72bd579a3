"""Ensemble <-> checkpoint round trips.

A batch checkpoints whole: its snapshot carries the member axis, and a
``format_version`` 3 file restores into an :class:`EnsembleSimCov` that
continues bitwise like the uninterrupted batch.  A member view still
duck-types the solo save surface, so ``save_checkpoint(path,
sim.member(b))`` writes a file that restores into the continuation of
member ``b``'s *solo* run, and a solo file stays format version 2.
"""

import numpy as np
import pytest

from repro.core.model import SequentialSimCov
from repro.core.params import ParamsStack, SimCovParams
from repro.engine.ensemble import EnsembleSimCov, expand_sweep
from repro.io.checkpoint import (
    CHECKPOINT_FIELDS,
    SERIES_ARRAYS,
    CheckpointCorruptError,
    load_checkpoint,
    restore_state,
    save_checkpoint,
    snapshot_state,
)

SERIES_FIELDS = (
    "healthy", "dead", "tcells_tissue", "virions_total",
    "tcells_vasculature", "extravasations",
)


@pytest.fixture(scope="module")
def batched():
    """A 3-member sweep run paused at step 40."""
    base = SimCovParams.fast_test(dim=(16, 16), num_infections=2, num_steps=70)
    members = expand_sweep(base, "num_infections", [1, 2, 3])
    sim = EnsembleSimCov(members, seeds=[5, 6, 7])
    sim.run(40)
    return members, sim


class TestEnsembleCheckpoint:
    def test_member_view_exposes_save_surface(self, batched):
        members, sim = batched
        view = sim.member(1)
        assert view.params == members[1]
        assert view.step_num == 40
        assert view.rng.seed == 6
        assert view.pool == float(sim.pool[1])
        assert len(view.series) == 40

    def test_saved_member_restores_into_solo_continuation(
        self, batched, tmp_path
    ):
        members, sim = batched
        for b in range(3):
            path = str(tmp_path / f"member{b}.npz")
            save_checkpoint(path, sim.member(b))
            restored = load_checkpoint(path)
            assert restored.step_num == 40
            # Restored state must equal the member's batched state ...
            for name in CHECKPOINT_FIELDS:
                np.testing.assert_array_equal(
                    getattr(restored.block, name)[restored.block.interior],
                    sim.gather_field(name, member=b),
                    err_msg=f"member {b} field {name}",
                )
            # ... and continuing solo must match the uninterrupted solo run.
            restored.run(30)
            solo = SequentialSimCov(members[b], seed=5 + b)
            solo.run(70)
            for name in CHECKPOINT_FIELDS:
                np.testing.assert_array_equal(
                    getattr(restored.block, name)[restored.block.interior],
                    getattr(solo.block, name)[solo.block.interior],
                    err_msg=f"member {b} field {name} after resume",
                )
            # The restored series is the member's whole run.
            assert len(restored.series) == 70
            for i in range(70):
                assert restored.series[i] == solo.series[i], (
                    f"member {b} stats diverged at step {i}"
                )

    def test_batched_continuation_matches_solo_after_checkpoint(
        self, batched, tmp_path
    ):
        """The batched run itself continues past the checkpoint bitwise."""
        members, sim = batched
        path = str(tmp_path / "member2.npz")
        save_checkpoint(path, sim.member(2))
        sim.run(30)  # continue the batched run to step 70
        restored = load_checkpoint(path)
        restored.run(30)
        for name in CHECKPOINT_FIELDS:
            np.testing.assert_array_equal(
                getattr(restored.block, name)[restored.block.interior],
                sim.gather_field(name, member=2),
                err_msg=name,
            )


CUT, TOTAL = 37, 60
#: T cells enter the tissue from step 10, so the pool, the tissue T cells
#: and the infection all move across the cut.
BASE = SimCovParams.fast_test(
    dim=(20, 20), num_infections=2, num_steps=TOTAL
).with_(tcell_initial_delay=10)
#: A uniform batch at B = 1 and B = 4, and a sweep whose members' FOI
#: lists are ragged (one of them empty) with repeated seeds.
BATCHES = {
    "B1": (BASE, [11]),
    "B4": (BASE, [11, 12, 13, 14]),
    "sweep": (
        ParamsStack(expand_sweep(BASE, "num_infections", [0, 1, 3, 2])),
        [11, 11, 12, 12],
    ),
}


@pytest.fixture(scope="module", params=sorted(BATCHES))
def cut_batch(request):
    """(members, seeds, the batch at step CUT, the uninterrupted batch)."""
    members, seeds = BATCHES[request.param]
    full = EnsembleSimCov(members, seeds=seeds)
    full.run(TOTAL)
    head = EnsembleSimCov(members, seeds=seeds)
    head.run(CUT)
    return members, seeds, head, full


def _assert_continues(restored, head, full):
    """``restored`` finishes the run bitwise like the uninterrupted batch:
    fields, pools, and each member's series stitched onto ``head``'s."""
    assert restored.step_num == CUT
    restored.run(TOTAL - CUT)
    tail = slice(-(TOTAL - CUT), None)
    for name in CHECKPOINT_FIELDS:
        assert np.array_equal(restored.gather_field(name), full.gather_field(name)), name
    assert np.array_equal(restored.pool, full.pool)
    for b in range(full.batch):
        stitched = list(head.member_series[b]) + list(restored.member_series[b])[tail]
        assert stitched == list(full.member_series[b]), f"member {b}"


class TestBatchRoundTrip:
    def test_in_memory(self, cut_batch):
        members, seeds, head, full = cut_batch
        tail = EnsembleSimCov(members, seeds=seeds)
        tail.run(5)  # an already stepped batch: its gate describes another state
        snapshot = snapshot_state(head)
        assert snapshot["pool"].shape == snapshot["seed"].shape == (len(seeds),)
        restore_state(tail, snapshot)
        _assert_continues(tail, head, full)

    def test_on_disk(self, cut_batch, tmp_path):
        members, seeds, head, full = cut_batch
        path = str(tmp_path / "batch.npz")
        save_checkpoint(path, head)
        with np.load(path) as data:
            assert int(data["format_version"]) == 3
            assert data["seed"].tolist() == seeds
        restored = load_checkpoint(path)
        assert isinstance(restored, EnsembleSimCov)
        assert restored.params.members == head.params.members
        for got, want in zip(
            restored.backend.member_seed_gids, head.backend.member_seed_gids
        ):
            assert np.array_equal(got, want)
        _assert_continues(restored, head, full)

    def test_member_of_a_restored_batch_continues_solo(self, cut_batch, tmp_path):
        members, seeds, head, full = cut_batch
        path = str(tmp_path / "batch.npz")
        save_checkpoint(path, head)
        batch = load_checkpoint(path)
        for b, seed in enumerate(seeds):
            solo = SequentialSimCov(batch.params.member(b), seed=seed)
            restore_state(solo, snapshot_state(batch.member(b)))
            solo.run(TOTAL - CUT)
            for name in CHECKPOINT_FIELDS:
                assert np.array_equal(
                    solo.gather_field(name), full.gather_field(name, member=b)
                ), (b, name)
            assert list(solo.series) == list(full.member_series[b]), b

    def test_corrupt_member_counts_detected(self, cut_batch, tmp_path):
        _, _, head, _ = cut_batch
        path = str(tmp_path / "batch.npz")
        save_checkpoint(path, head)
        data = dict(np.load(path))
        data["seed_gid_counts"] = data["seed_gid_counts"][::-1] + 1
        np.savez(path, **data)
        with pytest.raises(CheckpointCorruptError, match="seed_gid_counts"):
            load_checkpoint(path)


def test_solo_file_stays_version_2_with_unchanged_keys(tmp_path):
    sim = SequentialSimCov(BASE, seed=3)
    sim.run(4)
    path = str(tmp_path / "solo.npz")
    save_checkpoint(path, sim)
    with np.load(path) as data:
        assert int(data["format_version"]) == 2
        checked = (*CHECKPOINT_FIELDS, "seed_gids", *SERIES_ARRAYS)
        assert set(data.files) == {
            "format_version", "step_num", "pool", "seed", "params_json",
            *checked, *(f"crc_{name}" for name in checked),
        }
    restored = load_checkpoint(path)
    assert type(restored) is SequentialSimCov
    assert restored.pool == sim.pool and restored.rng.seed == 3
